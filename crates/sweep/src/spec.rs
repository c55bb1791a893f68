//! Declarative sweep specifications and their expansion into run lists.

use iadm_fault::scenario::{KindFilter, ScenarioSpec};
use iadm_sim::{
    EngineKind, LaneArbitration, RoutingPolicy, SimConfig, SwitchingMode, TagRepair,
    TrafficPattern, WorkloadSpec,
};
use iadm_topology::Size;

/// A declarative campaign: the cartesian grid of every axis, plus the
/// per-run timing parameters and the campaign master seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (labels the JSON artifact).
    pub name: String,
    /// Network sizes `N` (each a power of two ≥ 4).
    pub sizes: Vec<usize>,
    /// Offered loads in `[0, 1]`.
    pub loads: Vec<f64>,
    /// Output-queue capacities.
    pub queue_capacities: Vec<usize>,
    /// Routing policies.
    pub policies: Vec<RoutingPolicy>,
    /// Traffic patterns.
    pub patterns: Vec<TrafficPattern>,
    /// Switching modes (store-and-forward and/or wormhole variants).
    pub modes: Vec<SwitchingMode>,
    /// Workloads (`OpenLoop` and/or closed-loop request/flow/collective/
    /// adversarial sources). Closed workloads own injection, so they may
    /// only be crossed with `loads = [0.0]` and store-and-forward modes.
    pub workloads: Vec<WorkloadSpec>,
    /// Lane-arbitration labels ([`iadm_sim::LaneArbitration`]). A label
    /// only: the engine never reads it, so runs that differ only in it
    /// share a seed and give byte-identical statistics. E20's preset
    /// still crosses all three.
    pub arbitrations: Vec<LaneArbitration>,
    /// TSDT tag-cache repair reactions ([`iadm_sim::TagRepair`]): aware
    /// senders re-tag affected pairs as soon as a link repair lands,
    /// blind ones wait out the next failure's epoch turnover. Factored
    /// out of seed derivation so an aware/blind pair churns through the
    /// *identical* fault timeline — the recovery comparison is
    /// apples-to-apples. Inert for every policy but `tsdt`.
    pub tag_repairs: Vec<TagRepair>,
    /// Engine labels ([`iadm_sim::EngineKind`]). A label only: there is
    /// one engine, so runs that differ only in it share a seed and give
    /// byte-identical statistics. E17's preset still crosses both.
    pub engines: Vec<EngineKind>,
    /// Fault scenarios.
    pub scenarios: Vec<ScenarioSpec>,
    /// Cycles per run.
    pub cycles: usize,
    /// Warm-up cycles excluded from latency statistics.
    pub warmup: usize,
    /// Steady-state early termination, applied to *every* run of the
    /// grid: `Some((window, tol))` stops a run at the first window
    /// boundary where two consecutive windowed mean latencies agree
    /// within relative tolerance `tol`
    /// ([`Simulator::with_convergence`]). A campaign-level knob, not a
    /// tenth axis — convergence changes *when* runs stop, not *what* is
    /// being compared, so crossing it with itself would only duplicate
    /// grid points. `None` (the default everywhere predating it) keeps
    /// the fixed horizon and byte-identical historical artifacts.
    ///
    /// [`Simulator::with_convergence`]: iadm_sim::Simulator::with_convergence
    pub converge: Option<(u64, f64)>,
    /// Master seed; every run seed is derived from it by index.
    pub campaign_seed: u64,
}

/// One fully-resolved point of the grid. `seed` is already derived from
/// the campaign seed and `index`, so a `RunSpec` is self-contained: the
/// same `RunSpec` always simulates the same trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the campaign's expansion order (the aggregation key).
    pub index: usize,
    /// Network size.
    pub size: Size,
    /// Offered load.
    pub offered_load: f64,
    /// Output-queue capacity.
    pub queue_capacity: usize,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Switching mode.
    pub mode: SwitchingMode,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Lane-arbitration label (recorded, never read by the engine).
    pub arbitration: LaneArbitration,
    /// TSDT tag-cache repair reaction.
    pub tag_repair: TagRepair,
    /// Engine label (recorded, never read by the engine).
    pub engine: EngineKind,
    /// Fault scenario recipe.
    pub scenario: ScenarioSpec,
    /// Cycles to simulate.
    pub cycles: usize,
    /// Warm-up cycles.
    pub warmup: usize,
    /// Steady-state convergence `(window, tol)`, inherited from the
    /// campaign spec (`None` = fixed horizon).
    pub converge: Option<(u64, f64)>,
    /// Derived simulation seed: `mix(campaign_seed, index)` with the
    /// arbitration, tag-repair, and engine coordinates factored out of
    /// the index, so runs that differ only in those axes share a
    /// realization (engine and arbitration labels then give
    /// byte-identical statistics; an aware/blind tag-repair pair churns
    /// through the identical fault timeline).
    pub seed: u64,
}

/// The one-point `custom` campaign: N = 8, load 0.5, queue 4, SSDT,
/// uniform traffic, store-and-forward, open loop, first-free lanes,
/// aware repair, the synchronous engine, no faults, 2000 cycles with a
/// 400-cycle warm-up, seed 1. `iadm sweep` edits it with its axis flags
/// and `iadm simulate` runs its one point, so both commands share these
/// defaults.
impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            name: "custom".into(),
            sizes: vec![8],
            loads: vec![0.5],
            queue_capacities: vec![4],
            policies: vec![RoutingPolicy::SsdtBalance],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![ScenarioSpec::None],
            cycles: 2000,
            warmup: 400,
            converge: None,
            campaign_seed: 1,
        }
    }
}

impl SweepSpec {
    /// The length of every axis, in the canonical (outermost-first)
    /// expansion order. The single source of truth for the grid shape:
    /// [`grid_len`](Self::grid_len) is its product, and adding an axis
    /// without updating both this array and [`expand`](Self::expand)'s
    /// loop nest fails the `expansion_length_always_matches_grid_len`
    /// property test.
    fn axis_lens(&self) -> [usize; 11] {
        [
            self.sizes.len(),
            self.loads.len(),
            self.queue_capacities.len(),
            self.policies.len(),
            self.patterns.len(),
            self.modes.len(),
            self.workloads.len(),
            self.arbitrations.len(),
            self.tag_repairs.len(),
            self.engines.len(),
            self.scenarios.len(),
        ]
    }

    /// Number of grid points (runs) this spec expands to.
    pub fn grid_len(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// Expands the grid into the campaign's run list, in the canonical
    /// axis order (size, load, queue, policy, pattern, mode, workload,
    /// arbitration, tag-repair, engine, scenario — the innermost axis
    /// varies fastest) with derived per-run seeds.
    ///
    /// Validates every axis value, including the simulator's own limits
    /// ([`SimConfig::validate`]), so every returned run builds; an empty
    /// axis or an out-of-range entry is an error, not a silent no-op or
    /// a panic mid-campaign.
    pub fn expand(&self) -> Result<Vec<RunSpec>, String> {
        if self.grid_len() == 0 {
            return Err("sweep spec has an empty axis (zero runs)".into());
        }
        if self.cycles == 0 {
            return Err("cycles must be positive".into());
        }
        if self.warmup >= self.cycles {
            return Err(format!(
                "warmup {} must be below cycles {}",
                self.warmup, self.cycles
            ));
        }
        if let Some((window, tol)) = self.converge {
            if window == 0 {
                return Err("convergence window must be at least 1 cycle".into());
            }
            if !tol.is_finite() || tol < 0.0 {
                return Err(format!(
                    "convergence tolerance must be finite and non-negative, got {tol}"
                ));
            }
            // A verdict needs two complete windows; a window the horizon
            // cannot fit twice would silently degenerate to fixed-horizon.
            if 2 * window > self.cycles as u64 {
                return Err(format!(
                    "convergence window {window} needs two windows within {} cycles",
                    self.cycles
                ));
            }
        }
        // The grid is cartesian, so a closed workload anywhere on the
        // workload axis is crossed with *every* load and mode — reject
        // up front rather than panicking mid-campaign.
        if self.workloads.iter().any(WorkloadSpec::is_closed) {
            if self.loads.iter().any(|&l| l > 0.0) {
                return Err(
                    "closed-loop workloads own injection: the loads axis must be [0.0]".into(),
                );
            }
            if self.modes.iter().any(|&m| m != SwitchingMode::StoreForward) {
                return Err("closed-loop workloads drive store-and-forward runs only".into());
            }
        }
        let mut runs = Vec::with_capacity(self.grid_len());
        for &n in &self.sizes {
            let size = Size::new(n).map_err(|e| e.to_string())?;
            for mode in &self.modes {
                mode.validate(size)?;
            }
            for scenario in &self.scenarios {
                validate_scenario(scenario, size)?;
            }
            for pattern in &self.patterns {
                validate_pattern(pattern, size)?;
            }
            for workload in &self.workloads {
                workload.validate(size)?;
            }
            for &offered_load in &self.loads {
                for &queue_capacity in &self.queue_capacities {
                    // The simulator's own limits (load range, timestamp
                    // and ring-offset widths), checked once per
                    // (size, load, capacity) rather than per run.
                    SimConfig {
                        size,
                        queue_capacity,
                        cycles: self.cycles,
                        warmup: self.warmup,
                        offered_load,
                        seed: self.campaign_seed,
                        engine: EngineKind::default(),
                    }
                    .validate()?;
                    for &policy in &self.policies {
                        for pattern in &self.patterns {
                            for &mode in &self.modes {
                                for workload in &self.workloads {
                                    for (arb_idx, &arbitration) in
                                        self.arbitrations.iter().enumerate()
                                    {
                                        for (repair_idx, &tag_repair) in
                                            self.tag_repairs.iter().enumerate()
                                        {
                                            for (engine_idx, &engine) in
                                                self.engines.iter().enumerate()
                                            {
                                                for (scenario_idx, scenario) in
                                                    self.scenarios.iter().enumerate()
                                                {
                                                    let index = runs.len();
                                                    // Seed derivation skips the arbitration,
                                                    // tag-repair, and engine coordinates:
                                                    // engine and arbitration labels are never
                                                    // read, so their runs must be the same
                                                    // realization, and an aware/blind
                                                    // tag-repair pair must churn through the
                                                    // identical fault timeline for its
                                                    // recovery comparison to mean anything —
                                                    // so runs differing only in those axes
                                                    // share a seed. With one value on each
                                                    // (every campaign predating them) this
                                                    // is exactly the historical formula, so
                                                    // E13–E19 artifacts are unchanged.
                                                    let pres = (arb_idx * self.tag_repairs.len()
                                                        + repair_idx)
                                                        * self.engines.len()
                                                        + engine_idx;
                                                    let pres_len = self.arbitrations.len()
                                                        * self.tag_repairs.len()
                                                        * self.engines.len();
                                                    let seed_index = (index
                                                        - pres * self.scenarios.len()
                                                        - scenario_idx)
                                                        / pres_len
                                                        + scenario_idx;
                                                    runs.push(RunSpec {
                                                        index,
                                                        size,
                                                        offered_load,
                                                        queue_capacity,
                                                        policy,
                                                        pattern: pattern.clone(),
                                                        mode,
                                                        workload: workload.clone(),
                                                        arbitration,
                                                        tag_repair,
                                                        engine,
                                                        scenario: scenario.clone(),
                                                        cycles: self.cycles,
                                                        warmup: self.warmup,
                                                        converge: self.converge,
                                                        seed: iadm_rng::mix(
                                                            self.campaign_seed,
                                                            seed_index as u64,
                                                        ),
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        debug_assert_eq!(
            runs.len(),
            self.grid_len(),
            "expand()'s loop nest drifted from axis_lens()"
        );
        Ok(runs)
    }

    /// The tiny built-in campaign the smoke script and tests run: 8 runs
    /// at N=8, ≤ 200 cycles each, exercising both a healthy network and a
    /// double-nonstraight fault.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            name: "smoke".into(),
            sizes: vec![8],
            loads: vec![0.2, 0.6],
            queue_capacities: vec![4],
            policies: vec![RoutingPolicy::FixedC, RoutingPolicy::SsdtBalance],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::DoubleNonstraight {
                    stage: 1,
                    switch: 1,
                },
            ],
            cycles: 200,
            warmup: 40,
            converge: None,
            campaign_seed: 7,
        }
    }

    /// Experiment E13: SSDT-balance vs fixed-C vs TSDT-sender across
    /// offered loads 0.1–0.9 at N=64, with and without a single random
    /// link fault (54 runs).
    pub fn e13() -> SweepSpec {
        SweepSpec {
            name: "e13".into(),
            sizes: vec![64],
            loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            queue_capacities: vec![4],
            policies: vec![
                RoutingPolicy::FixedC,
                RoutingPolicy::SsdtBalance,
                RoutingPolicy::TsdtSender,
            ],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::RandomLinks {
                    count: 1,
                    filter: KindFilter::Any,
                },
            ],
            cycles: 1200,
            warmup: 240,
            converge: None,
            campaign_seed: 0xE13,
        }
    }

    /// Experiment E15: transient-fault degradation. Three fault climates —
    /// a static healthy network, gentle churn (MTBF 1000 / MTTR 200) and
    /// harsh churn (MTBF 250 / MTTR 100) — crossed with three policies and
    /// three loads at N=64 (27 runs). The timelines realize per run from
    /// the run seed, so the campaign is as deterministic as E13.
    pub fn e15() -> SweepSpec {
        SweepSpec {
            name: "e15".into(),
            sizes: vec![64],
            loads: vec![0.2, 0.5, 0.8],
            queue_capacities: vec![4],
            policies: vec![
                RoutingPolicy::FixedC,
                RoutingPolicy::SsdtBalance,
                RoutingPolicy::TsdtSender,
            ],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::Mtbf {
                    mtbf: 1000,
                    mttr: 200,
                },
                ScenarioSpec::Mtbf {
                    mtbf: 250,
                    mttr: 100,
                },
            ],
            cycles: 2000,
            warmup: 400,
            converge: None,
            campaign_seed: 0xE15,
        }
    }

    /// Experiment E16: store-and-forward vs wormhole switching. Three
    /// policies × two switching modes (single-packet SF and 4-flit
    /// single-lane worms) across offered loads 0.1–0.9 at N=64, with and
    /// without gentle MTBF churn (108 runs). Measures how worm-length
    /// link holding shifts the latency tail and how reserved-link
    /// teardown under churn costs delivery.
    pub fn e16() -> SweepSpec {
        SweepSpec {
            name: "e16".into(),
            sizes: vec![64],
            loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            queue_capacities: vec![4],
            policies: vec![
                RoutingPolicy::FixedC,
                RoutingPolicy::SsdtBalance,
                RoutingPolicy::TsdtSender,
            ],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![
                SwitchingMode::StoreForward,
                SwitchingMode::Wormhole { flits: 4, lanes: 1 },
            ],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::Mtbf {
                    mtbf: 1000,
                    mttr: 200,
                },
            ],
            cycles: 1200,
            warmup: 240,
            converge: None,
            campaign_seed: 0xE16,
        }
    }

    /// Experiment E17: low load at large N. Two sizes × two low loads ×
    /// two policies × both engine labels, healthy and under gentle churn
    /// (32 runs). The engine axis dates from the deleted event-driven
    /// engine and is now a label: its `event` runs are their `sync`
    /// twins, kept so `results/e17_campaign.json` regenerates byte for
    /// byte until the next data epoch.
    pub fn e17() -> SweepSpec {
        SweepSpec {
            name: "e17".into(),
            sizes: vec![256, 1024],
            loads: vec![0.05, 0.2],
            queue_capacities: vec![4],
            policies: vec![RoutingPolicy::FixedC, RoutingPolicy::SsdtBalance],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous, EngineKind::EventDriven],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::Mtbf {
                    mtbf: 1000,
                    mttr: 200,
                },
            ],
            cycles: 1200,
            warmup: 240,
            converge: None,
            campaign_seed: 0xE17,
        }
    }

    /// Experiment E18: closed-loop request/response service over the
    /// fabric. Every port is a client looping request → response → think;
    /// the think time sets the offered request rate (think 0 is the
    /// saturating limit, think 128 a lightly-loaded service). Four think
    /// times × four policies × two sizes, healthy and under gentle MTBF
    /// churn (64 runs). The loads axis is pinned to `[0.0]` because the
    /// workload owns injection; the observable is p99 *request* latency —
    /// the full request+response round trip — rather than per-packet
    /// delivery latency.
    pub fn e18() -> SweepSpec {
        SweepSpec {
            name: "e18".into(),
            sizes: vec![64, 256],
            loads: vec![0.0],
            queue_capacities: vec![4],
            policies: vec![
                RoutingPolicy::FixedC,
                RoutingPolicy::SsdtBalance,
                RoutingPolicy::RandomSign,
                RoutingPolicy::TsdtSender,
            ],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![
                WorkloadSpec::RequestResponse {
                    clients: 0,
                    think: 0,
                    req: 1,
                    resp: 1,
                },
                WorkloadSpec::RequestResponse {
                    clients: 0,
                    think: 8,
                    req: 1,
                    resp: 1,
                },
                WorkloadSpec::RequestResponse {
                    clients: 0,
                    think: 32,
                    req: 1,
                    resp: 1,
                },
                WorkloadSpec::RequestResponse {
                    clients: 0,
                    think: 128,
                    req: 1,
                    resp: 1,
                },
            ],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::Mtbf {
                    mtbf: 1000,
                    mttr: 200,
                },
            ],
            cycles: 1500,
            warmup: 300,
            converge: None,
            campaign_seed: 0xE18,
        }
    }

    /// Experiment E19: power-of-two-choices routing at steady state.
    /// D-choice (plain and sticky) against the paper's SSDT balance and
    /// TSDT sender across three traffic shapes — uniform, a single hot
    /// spot, and the bit-reversal permutation (the adversarial pattern
    /// for an open-loop grid: it drives every switch's nonstraight pair
    /// maximally asymmetrically) — at two loads, N=64 (24 runs). Every
    /// run carries steady-state termination (window 250 cycles, 5%
    /// relative tolerance), so the artifact records `converged_at_cycle`
    /// per run: the observable is not just *how well* each policy
    /// balances but *how fast* its latency distribution settles.
    pub fn e19() -> SweepSpec {
        SweepSpec {
            name: "e19".into(),
            sizes: vec![64],
            loads: vec![0.3, 0.6],
            queue_capacities: vec![4],
            policies: vec![
                RoutingPolicy::SsdtBalance,
                RoutingPolicy::TsdtSender,
                RoutingPolicy::DChoice {
                    d: 2,
                    sticky: false,
                },
                RoutingPolicy::DChoice { d: 2, sticky: true },
            ],
            patterns: vec![
                TrafficPattern::Uniform,
                TrafficPattern::HotSpot(0),
                TrafficPattern::BitReversal,
            ],
            modes: vec![SwitchingMode::StoreForward],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![LaneArbitration::FirstFree],
            tag_repairs: vec![TagRepair::Aware],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![ScenarioSpec::None],
            cycles: 4000,
            warmup: 400,
            converge: Some((250, 0.05)),
            campaign_seed: 0xE19,
        }
    }

    /// Experiment E20: the multi-lane wormhole frontier and repair-aware
    /// recovery. TSDT worms at loads 0.3 (under-saturated, where every
    /// stale refusal costs a delivery) and 0.9 (the saturation frontier),
    /// flits {2, 4, 8} × lanes {1, 2, 4}, every lane-arbitration label, two
    /// buffer depths (documented inert in wormhole mode — the axis pins
    /// that), healthy plus two repair climates at a fixed failure rate
    /// (MTBF 60000 per link, MTTR 150 vs 900 — the availability-SLO
    /// sweep) plus two deterministic 72-link burst outages at cycle 300
    /// repaired after 150 vs 600 cycles (the recovery-window sweep —
    /// under steady churn any failure anywhere refreshes a blind
    /// sender's cache, so only a burst with a quiet tail separates aware
    /// from blind), and the aware/blind tag-repair pair over identical
    /// timelines (1080 runs).
    /// Measures how the lane count lifts the E16 single-lane throughput
    /// ceiling (~0.123–0.150 delivered/port/cycle) and quantifies how
    /// much faster repair-aware senders recover delivered throughput than
    /// epoch-turnover senders. The arbitration labels no longer change
    /// the engine; they stay so `results/e20_campaign.json` regenerates
    /// byte for byte until the next data epoch.
    pub fn e20() -> SweepSpec {
        SweepSpec {
            name: "e20".into(),
            sizes: vec![64],
            loads: vec![0.3, 0.9],
            queue_capacities: vec![2, 8],
            policies: vec![RoutingPolicy::TsdtSender],
            patterns: vec![TrafficPattern::Uniform],
            modes: vec![
                SwitchingMode::Wormhole { flits: 2, lanes: 1 },
                SwitchingMode::Wormhole { flits: 2, lanes: 2 },
                SwitchingMode::Wormhole { flits: 2, lanes: 4 },
                SwitchingMode::Wormhole { flits: 4, lanes: 1 },
                SwitchingMode::Wormhole { flits: 4, lanes: 2 },
                SwitchingMode::Wormhole { flits: 4, lanes: 4 },
                SwitchingMode::Wormhole { flits: 8, lanes: 1 },
                SwitchingMode::Wormhole { flits: 8, lanes: 2 },
                SwitchingMode::Wormhole { flits: 8, lanes: 4 },
            ],
            workloads: vec![WorkloadSpec::OpenLoop],
            arbitrations: vec![
                LaneArbitration::FirstFree,
                LaneArbitration::RoundRobin,
                LaneArbitration::LeastHeld,
            ],
            tag_repairs: vec![TagRepair::Aware, TagRepair::Blind],
            engines: vec![EngineKind::Synchronous],
            scenarios: vec![
                ScenarioSpec::None,
                ScenarioSpec::Mtbf {
                    mtbf: 60000,
                    mttr: 150,
                },
                ScenarioSpec::Mtbf {
                    mtbf: 60000,
                    mttr: 900,
                },
                ScenarioSpec::Outage {
                    links: 72,
                    down: 300,
                    up: 450,
                },
                ScenarioSpec::Outage {
                    links: 72,
                    down: 300,
                    up: 900,
                },
            ],
            cycles: 1200,
            warmup: 240,
            converge: None,
            campaign_seed: 0xE20,
        }
    }

    /// Looks a built-in campaign up by name.
    pub fn builtin(name: &str) -> Result<SweepSpec, String> {
        match name {
            "smoke" => Ok(SweepSpec::smoke()),
            "e13" => Ok(SweepSpec::e13()),
            "e15" => Ok(SweepSpec::e15()),
            "e16" => Ok(SweepSpec::e16()),
            "e17" => Ok(SweepSpec::e17()),
            "e18" => Ok(SweepSpec::e18()),
            "e19" => Ok(SweepSpec::e19()),
            "e20" => Ok(SweepSpec::e20()),
            other => Err(format!(
                "unknown built-in sweep spec {other} (smoke, e13, e15, e16, e17, e18, e19, e20)"
            )),
        }
    }
}

/// Range-checks a fault scenario against a network size (the same check
/// `SweepSpec::expand` applies per size axis — public so the CLI can
/// validate a `simulate --faults` scenario before realizing it).
pub fn validate_scenario(spec: &ScenarioSpec, size: Size) -> Result<(), String> {
    let stage_ok = |stage: usize| {
        if stage < size.stages() {
            Ok(())
        } else {
            Err(format!(
                "scenario {}: stage {stage} out of range for N={}",
                spec.label(),
                size.n()
            ))
        }
    };
    let switch_ok = |sw: usize| {
        if sw < size.n() {
            Ok(())
        } else {
            Err(format!(
                "scenario {}: switch {sw} out of range for N={}",
                spec.label(),
                size.n()
            ))
        }
    };
    match spec {
        ScenarioSpec::None => Ok(()),
        ScenarioSpec::SingleLink(link) => {
            stage_ok(link.stage)?;
            switch_ok(link.from)
        }
        ScenarioSpec::RandomLinks { count, filter } => {
            let candidates = iadm_fault::scenario::candidate_count(size, *filter);
            if *count > candidates {
                Err(format!(
                    "scenario {}: {count} faults but only {candidates} candidate links",
                    spec.label()
                ))
            } else {
                Ok(())
            }
        }
        ScenarioSpec::Bernoulli { p, .. } => {
            if (0.0..=1.0).contains(p) {
                Ok(())
            } else {
                Err(format!(
                    "scenario {}: probability out of range",
                    spec.label()
                ))
            }
        }
        ScenarioSpec::DoubleNonstraight { stage, switch } => {
            stage_ok(*stage)?;
            switch_ok(*switch)
        }
        ScenarioSpec::StageNonstraightBurst { stage } => stage_ok(*stage),
        ScenarioSpec::Mtbf { mtbf, mttr } => {
            if *mtbf == 0 || *mttr == 0 {
                Err(format!(
                    "scenario {}: mtbf and mttr must both be at least 1 cycle",
                    spec.label()
                ))
            } else {
                Ok(())
            }
        }
        ScenarioSpec::Outage { links, down, up } => {
            let candidates = iadm_fault::scenario::candidate_count(size, KindFilter::Any);
            if *links == 0 || *links > candidates {
                Err(format!(
                    "scenario {}: burst of {links} links but only {candidates} candidate links",
                    spec.label()
                ))
            } else if down >= up {
                Err(format!(
                    "scenario {}: the repair cycle must come after the failure cycle",
                    spec.label()
                ))
            } else {
                Ok(())
            }
        }
        ScenarioSpec::SwitchBandBurst {
            stage,
            first,
            count,
        } => {
            stage_ok(*stage)?;
            switch_ok(*first)?;
            if *count > size.n() {
                Err(format!(
                    "scenario {}: band of {count} switches exceeds N={}",
                    spec.label(),
                    size.n()
                ))
            } else {
                Ok(())
            }
        }
    }
}

fn validate_pattern(pattern: &TrafficPattern, size: Size) -> Result<(), String> {
    match pattern {
        TrafficPattern::Uniform | TrafficPattern::BitReversal => Ok(()),
        TrafficPattern::HotSpot(d) => {
            if *d < size.n() {
                Ok(())
            } else {
                Err(format!("hot spot {d} out of range for N={}", size.n()))
            }
        }
        TrafficPattern::Permutation(perm) => {
            if perm.len() == size.n() && perm.iter().all(|&d| d < size.n()) {
                Ok(())
            } else {
                Err(format!("permutation invalid for N={}", size.n()))
            }
        }
    }
}

/// The stable label of a policy (also the spelling `parse_policy`
/// accepts): `fixed | ssdt | random | tsdt | dchoice:<d>[:sticky]`.
pub fn policy_label(policy: RoutingPolicy) -> String {
    match policy {
        RoutingPolicy::FixedC => "fixed".into(),
        RoutingPolicy::SsdtBalance => "ssdt".into(),
        RoutingPolicy::RandomSign => "random".into(),
        RoutingPolicy::TsdtSender => "tsdt".into(),
        RoutingPolicy::DChoice { d, sticky: false } => format!("dchoice:{d}"),
        RoutingPolicy::DChoice { d, sticky: true } => format!("dchoice:{d}:sticky"),
    }
}

/// Parses a policy name (`fixed | ssdt | random | tsdt |
/// dchoice:<d>[:sticky]`).
pub fn parse_policy(text: &str) -> Result<RoutingPolicy, String> {
    if let Some(rest) = text.strip_prefix("dchoice:") {
        let (d, sticky) = match rest.split_once(':') {
            Some((d, "sticky")) => (d, true),
            Some((_, other)) => {
                return Err(format!("unknown dchoice modifier {other} (only sticky)"))
            }
            None => (rest, false),
        };
        let d: u8 = d
            .parse()
            .map_err(|_| format!("bad choice count in {text}"))?;
        // Pivot theory caps the candidate set: a message ever has at most
        // two routable output links (Theorem 3.2), so d > 2 would lie
        // about the sampling width.
        if !(1..=2).contains(&d) {
            return Err(format!(
                "dchoice takes d in 1..=2 (the IADM offers at most two \
                 routable links per stage), got {d}"
            ));
        }
        return Ok(RoutingPolicy::DChoice { d, sticky });
    }
    match text {
        "fixed" => Ok(RoutingPolicy::FixedC),
        "ssdt" => Ok(RoutingPolicy::SsdtBalance),
        "random" => Ok(RoutingPolicy::RandomSign),
        "tsdt" => Ok(RoutingPolicy::TsdtSender),
        other => Err(format!(
            "unknown policy {other} (fixed, ssdt, random, tsdt, dchoice:<d>[:sticky])"
        )),
    }
}

/// The stable label of a convergence setting (also the spelling
/// `parse_converge` accepts): `<window>:<tol>`.
pub fn converge_label(window: u64, tol: f64) -> String {
    format!("{window}:{tol}")
}

/// Parses a steady-state convergence setting (`<window>:<tol>`, e.g.
/// `250:0.05` — compare 250-cycle windowed mean latencies, stop when two
/// consecutive windows agree within 5%). Range validation (window ≥ 1,
/// two windows within the horizon) happens in [`SweepSpec::expand`],
/// which knows the cycle budget.
pub fn parse_converge(text: &str) -> Result<(u64, f64), String> {
    let (window, tol) = text
        .split_once(':')
        .ok_or_else(|| format!("{text} must look like <window>:<tol>"))?;
    let window = window
        .parse()
        .map_err(|_| format!("bad window in {text}"))?;
    let tol: f64 = tol
        .parse()
        .map_err(|_| format!("bad tolerance in {text}"))?;
    if !tol.is_finite() || tol < 0.0 {
        return Err(format!(
            "tolerance in {text} must be finite and non-negative"
        ));
    }
    Ok((window, tol))
}

/// The stable label of a traffic pattern.
pub fn pattern_label(pattern: &TrafficPattern) -> String {
    match pattern {
        TrafficPattern::Uniform => "uniform".into(),
        TrafficPattern::BitReversal => "bitrev".into(),
        TrafficPattern::HotSpot(d) => format!("hotspot:{d}"),
        TrafficPattern::Permutation(perm) => {
            let entries: Vec<String> = perm.iter().map(usize::to_string).collect();
            format!("perm:{}", entries.join("."))
        }
    }
}

/// Parses a pattern label (`uniform | bitrev | hotspot:<d> | perm:<d.d...>`).
pub fn parse_pattern(text: &str) -> Result<TrafficPattern, String> {
    if text == "uniform" {
        return Ok(TrafficPattern::Uniform);
    }
    if text == "bitrev" {
        return Ok(TrafficPattern::BitReversal);
    }
    if let Some(d) = text.strip_prefix("hotspot:") {
        let d = d
            .parse()
            .map_err(|_| format!("bad hotspot destination in {text}"))?;
        return Ok(TrafficPattern::HotSpot(d));
    }
    if let Some(list) = text.strip_prefix("perm:") {
        let perm = list
            .split('.')
            .map(|x| {
                x.parse::<usize>()
                    .map_err(|_| format!("bad entry in {text}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(TrafficPattern::Permutation(perm));
    }
    Err(format!(
        "unknown pattern {text} (uniform, bitrev, hotspot:<d>, perm:<d.d...>)"
    ))
}

/// The stable label of a switching mode (also the spelling `parse_mode`
/// accepts): `sf`, `wormhole:<flits>`, or `wormhole:<flits>:<lanes>`
/// (the lane count is elided when it is 1, the common case).
pub fn mode_label(mode: SwitchingMode) -> String {
    match mode {
        SwitchingMode::StoreForward => "sf".into(),
        SwitchingMode::Wormhole { flits, lanes: 1 } => format!("wormhole:{flits}"),
        SwitchingMode::Wormhole { flits, lanes } => format!("wormhole:{flits}:{lanes}"),
    }
}

/// Parses a switching-mode label (`sf | wormhole:<flits>[:<lanes>]`).
pub fn parse_mode(text: &str) -> Result<SwitchingMode, String> {
    if text == "sf" {
        return Ok(SwitchingMode::StoreForward);
    }
    if let Some(rest) = text.strip_prefix("wormhole:") {
        let (flits, lanes) = match rest.split_once(':') {
            Some((flits, lanes)) => (
                flits,
                lanes
                    .parse()
                    .map_err(|_| format!("bad lane count in {text}"))?,
            ),
            None => (rest, 1),
        };
        let flits = flits
            .parse()
            .map_err(|_| format!("bad flit count in {text}"))?;
        if flits == 0 {
            return Err(format!("{text}: a worm needs at least one flit"));
        }
        if lanes == 0 {
            return Err(format!("{text}: a link needs at least one lane"));
        }
        // The reservation table counts held lanes in u16; rejecting here
        // turns what used to be a mid-run panic into a parse error.
        if lanes > u32::from(u16::MAX) {
            return Err(format!(
                "{text}: {lanes} lanes per link exceeds the reservation table's \
                 u16 lane counters (max {})",
                u16::MAX
            ));
        }
        return Ok(SwitchingMode::Wormhole { flits, lanes });
    }
    Err(format!(
        "unknown switching mode {text} (sf, wormhole:<flits>[:<lanes>])"
    ))
}

/// The stable label of a lane-arbitration label value, as E20's records
/// spell it: `first-free | round-robin | least-held`.
pub fn arbitration_label(arb: LaneArbitration) -> &'static str {
    match arb {
        LaneArbitration::FirstFree => "first-free",
        LaneArbitration::RoundRobin => "round-robin",
        LaneArbitration::LeastHeld => "least-held",
    }
}

/// The stable label of a tag-repair reaction (also the spelling
/// `parse_tag_repair` accepts): `aware | blind`.
pub fn tag_repair_label(repair: TagRepair) -> &'static str {
    match repair {
        TagRepair::Aware => "aware",
        TagRepair::Blind => "blind",
    }
}

/// Parses a tag-repair label (`aware | blind`).
pub fn parse_tag_repair(text: &str) -> Result<TagRepair, String> {
    match text {
        "aware" => Ok(TagRepair::Aware),
        "blind" => Ok(TagRepair::Blind),
        other => Err(format!("unknown tag-repair mode {other} (aware, blind)")),
    }
}

/// The stable label of an engine label value, as E17's records spell
/// it: `sync` or `event`.
pub fn engine_label(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Synchronous => "sync",
        EngineKind::EventDriven => "event",
    }
}

/// Parses a comma-separated load list (`0.1,0.5,0.9`).
pub fn parse_loads(text: &str) -> Result<Vec<f64>, String> {
    text.split(',')
        .map(|x| x.trim().parse::<f64>().map_err(|_| format!("bad load {x}")))
        .collect()
}

/// Parses a fault-scenario label — the same spelling [`ScenarioSpec::label`]
/// emits, minus the `link:` form (which needs a network size to validate
/// and is assembled by the CLI from its `--block` syntax):
/// `none | rand:<count> | bernoulli:<p> | double:S<stage>:<switch> |
/// stageburst:S<stage> | band:S<stage>:<first>x<count> |
/// mtbf:<mtbf>:<mttr> | outage:<links>:<down>:<up>`.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    if text == "none" {
        return Ok(ScenarioSpec::None);
    }
    if let Some(rest) = text.strip_prefix("mtbf:") {
        let (mtbf, mttr) = rest
            .split_once(':')
            .ok_or_else(|| format!("{text} must look like mtbf:<mtbf>:<mttr>"))?;
        return Ok(ScenarioSpec::Mtbf {
            mtbf: mtbf.parse().map_err(|_| format!("bad mtbf in {text}"))?,
            mttr: mttr.parse().map_err(|_| format!("bad mttr in {text}"))?,
        });
    }
    if let Some(rest) = text.strip_prefix("outage:") {
        let usage = || format!("{text} must look like outage:<links>:<down>:<up>");
        let (links, cycles) = rest.split_once(':').ok_or_else(usage)?;
        let (down, up) = cycles.split_once(':').ok_or_else(usage)?;
        return Ok(ScenarioSpec::Outage {
            links: links
                .parse()
                .map_err(|_| format!("bad link count in {text}"))?,
            down: down
                .parse()
                .map_err(|_| format!("bad failure cycle in {text}"))?,
            up: up
                .parse()
                .map_err(|_| format!("bad repair cycle in {text}"))?,
        });
    }
    if let Some(count) = text.strip_prefix("rand:") {
        let count = count
            .parse()
            .map_err(|_| format!("bad fault count in {text}"))?;
        return Ok(ScenarioSpec::RandomLinks {
            count,
            filter: KindFilter::Any,
        });
    }
    if let Some(p) = text.strip_prefix("bernoulli:") {
        let p = p
            .parse()
            .map_err(|_| format!("bad probability in {text}"))?;
        return Ok(ScenarioSpec::Bernoulli {
            p,
            filter: KindFilter::Any,
        });
    }
    if let Some(rest) = text.strip_prefix("double:S") {
        let (stage, switch) = rest
            .split_once(':')
            .ok_or_else(|| format!("{text} must look like double:S<stage>:<switch>"))?;
        return Ok(ScenarioSpec::DoubleNonstraight {
            stage: stage.parse().map_err(|_| format!("bad stage in {text}"))?,
            switch: switch
                .parse()
                .map_err(|_| format!("bad switch in {text}"))?,
        });
    }
    if let Some(stage) = text.strip_prefix("stageburst:S") {
        return Ok(ScenarioSpec::StageNonstraightBurst {
            stage: stage.parse().map_err(|_| format!("bad stage in {text}"))?,
        });
    }
    if let Some(rest) = text.strip_prefix("band:S") {
        let (stage, band) = rest
            .split_once(':')
            .ok_or_else(|| format!("{text} must look like band:S<stage>:<first>x<count>"))?;
        let (first, count) = band
            .split_once('x')
            .ok_or_else(|| format!("{text} must look like band:S<stage>:<first>x<count>"))?;
        return Ok(ScenarioSpec::SwitchBandBurst {
            stage: stage.parse().map_err(|_| format!("bad stage in {text}"))?,
            first: first.parse().map_err(|_| format!("bad switch in {text}"))?,
            count: count.parse().map_err(|_| format!("bad count in {text}"))?,
        });
    }
    Err(format!("unknown fault scenario {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_the_grid_in_canonical_order() {
        let spec = SweepSpec::smoke();
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), spec.grid_len());
        assert_eq!(runs.len(), 8);
        // Indexes are dense and ordered.
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.seed, iadm_rng::mix(spec.campaign_seed, i as u64));
        }
        // Innermost axis (scenario) varies fastest.
        assert_eq!(runs[0].scenario, ScenarioSpec::None);
        assert_ne!(runs[1].scenario, ScenarioSpec::None);
        assert_eq!(runs[0].policy, runs[1].policy);
        // Distinct runs get distinct seeds.
        let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), runs.len());
    }

    #[test]
    fn expansion_rejects_bad_axes() {
        let mut spec = SweepSpec::smoke();
        spec.loads = vec![1.5];
        assert!(spec.expand().is_err());

        let mut spec = SweepSpec::smoke();
        spec.loads.clear();
        assert!(spec.expand().is_err(), "empty axis");

        let mut spec = SweepSpec::smoke();
        spec.scenarios = vec![ScenarioSpec::DoubleNonstraight {
            stage: 99,
            switch: 0,
        }];
        assert!(spec.expand().is_err(), "out-of-range scenario");

        let mut spec = SweepSpec::smoke();
        spec.warmup = spec.cycles;
        assert!(spec.expand().is_err(), "warmup >= cycles");

        let mut spec = SweepSpec::smoke();
        spec.sizes = vec![7];
        assert!(spec.expand().is_err(), "non-power-of-two size");
    }

    #[test]
    fn e13_matches_its_advertised_shape() {
        let spec = SweepSpec::e13();
        assert_eq!(spec.grid_len(), 9 * 3 * 2);
        let runs = spec.expand().unwrap();
        assert!(runs.iter().all(|r| r.size.n() == 64));
    }

    #[test]
    fn policy_and_pattern_labels_round_trip() {
        for policy in [
            RoutingPolicy::FixedC,
            RoutingPolicy::SsdtBalance,
            RoutingPolicy::RandomSign,
            RoutingPolicy::TsdtSender,
            RoutingPolicy::DChoice {
                d: 1,
                sticky: false,
            },
            RoutingPolicy::DChoice {
                d: 2,
                sticky: false,
            },
            RoutingPolicy::DChoice { d: 2, sticky: true },
        ] {
            assert_eq!(parse_policy(&policy_label(policy)).unwrap(), policy);
        }
        assert_eq!(
            policy_label(RoutingPolicy::DChoice { d: 2, sticky: true }),
            "dchoice:2:sticky"
        );
        assert!(parse_policy("dchoice:0").is_err(), "zero choices");
        assert!(
            parse_policy("dchoice:3").is_err(),
            "pivot theory caps d at 2"
        );
        assert!(parse_policy("dchoice:2:styck").is_err(), "typo'd modifier");
        assert!(parse_policy("dchoice:").is_err());
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::HotSpot(3),
            TrafficPattern::Permutation(vec![1, 0, 3, 2]),
        ] {
            assert_eq!(parse_pattern(&pattern_label(&pattern)).unwrap(), pattern);
        }
        assert!(parse_policy("adaptive").is_err());
        assert!(parse_pattern("zipf").is_err());
    }

    #[test]
    fn scenario_parsing_round_trips_labels() {
        for text in [
            "none",
            "rand:3:any",
            "double:S1:4",
            "stageburst:S2",
            "band:S0:6x3",
            "mtbf:1000:200",
            "outage:12:300:450",
        ] {
            // parse_scenario accepts the label spelling without the
            // filter suffix; normalize before comparing.
            let parsed = parse_scenario(text.trim_end_matches(":any")).unwrap();
            assert_eq!(
                parsed.label().trim_end_matches(":any"),
                text.trim_end_matches(":any")
            );
        }
        assert!(parse_scenario("meteor").is_err());
        assert!(parse_scenario("double:S1").is_err());
        assert!(parse_scenario("mtbf:1000").is_err());
        assert!(parse_scenario("mtbf:fast:slow").is_err());
        assert!(parse_scenario("outage:12").is_err());
        assert!(parse_scenario("outage:12:300").is_err());
        assert!(parse_scenario("outage:many:300:450").is_err());
    }

    #[test]
    fn outage_scenarios_validate_burst_size_and_cycle_order() {
        let base = SweepSpec::smoke();
        let mut spec = base.clone();
        spec.scenarios = vec![ScenarioSpec::Outage {
            links: 6,
            down: 50,
            up: 200,
        }];
        assert!(spec.expand().is_ok());
        // More burst links than the N=8 network has (3*8*3 = 72).
        spec.scenarios = vec![ScenarioSpec::Outage {
            links: 73,
            down: 50,
            up: 200,
        }];
        assert!(spec.expand().is_err());
        // Repair must come strictly after the failure.
        spec.scenarios = vec![ScenarioSpec::Outage {
            links: 6,
            down: 200,
            up: 200,
        }];
        assert!(spec.expand().is_err());
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [
            SwitchingMode::StoreForward,
            SwitchingMode::Wormhole { flits: 4, lanes: 1 },
            SwitchingMode::Wormhole { flits: 8, lanes: 2 },
        ] {
            assert_eq!(parse_mode(&mode_label(mode)).unwrap(), mode);
        }
        assert_eq!(
            mode_label(SwitchingMode::Wormhole { flits: 4, lanes: 1 }),
            "wormhole:4"
        );
        assert!(parse_mode("cut-through").is_err());
        assert!(parse_mode("wormhole:0").is_err(), "zero flits");
        assert!(parse_mode("wormhole:4:0").is_err(), "zero lanes");
        assert!(parse_mode("wormhole:soggy").is_err());
    }

    #[test]
    fn mode_parsing_rejects_lane_counts_beyond_the_table_counters() {
        // Lane counts live in the reservation table's u16 held counters;
        // this used to parse fine and panic inside ReservationTable::new.
        assert_eq!(
            parse_mode("wormhole:4:65535").unwrap(),
            SwitchingMode::Wormhole {
                flits: 4,
                lanes: 65535
            }
        );
        let err = parse_mode("wormhole:4:65536").unwrap_err();
        assert!(err.contains("u16 lane counters"), "{err}");
        assert!(parse_mode("wormhole:4:4294967295").is_err());

        let mut spec = SweepSpec::smoke();
        spec.modes = vec![SwitchingMode::Wormhole {
            flits: 4,
            lanes: 70000,
        }];
        let err = spec.expand().unwrap_err();
        assert!(err.contains("u16 lane counters"), "{err}");
    }

    #[test]
    fn wormhole_lane_slots_must_fit_32_bits() {
        // 3·N·n·lanes lane slots at 65535 lanes: 2.0e9 at N = 1024
        // (fits), 9.7e9 at N = 4096 (does not). Only `expand` runs.
        let mut spec = SweepSpec {
            modes: vec![SwitchingMode::Wormhole {
                flits: 4,
                lanes: 65535,
            }],
            sizes: vec![1024],
            ..SweepSpec::default()
        };
        assert!(spec.expand().is_ok());
        spec.sizes = vec![4096];
        let err = spec.expand().unwrap_err();
        assert!(err.contains("lane slots"), "unhelpful message: {err}");
    }

    #[test]
    fn networks_too_large_for_32_bit_link_indices_are_rejected() {
        // One packet per link keeps the queue slots at the link count.
        let mut spec = SweepSpec {
            sizes: vec![1 << 25],
            queue_capacities: vec![1],
            ..SweepSpec::default()
        };
        assert!(spec.expand().is_ok());
        spec.sizes = vec![1 << 26];
        assert!(spec.expand().is_err());
    }

    #[test]
    fn tag_repair_labels_round_trip() {
        for repair in [TagRepair::Aware, TagRepair::Blind] {
            assert_eq!(parse_tag_repair(tag_repair_label(repair)).unwrap(), repair);
        }
        assert!(parse_tag_repair("psychic").is_err());
    }

    #[test]
    fn arbitration_and_tag_repair_axes_share_seeds_like_the_engine_axis() {
        // All three presentation axes (arbitration, tag-repair, engine)
        // are factored out of seed derivation: runs that differ only in
        // them share a realization, and the single-value grid keeps the
        // exact historical mix(campaign_seed, run_index) seeds.
        let single = SweepSpec::smoke().expand().unwrap();
        let mut spec = SweepSpec::smoke();
        spec.arbitrations = vec![
            LaneArbitration::FirstFree,
            LaneArbitration::RoundRobin,
            LaneArbitration::LeastHeld,
        ];
        spec.tag_repairs = vec![TagRepair::Aware, TagRepair::Blind];
        spec.engines = vec![EngineKind::Synchronous, EngineKind::EventDriven];
        assert_eq!(spec.grid_len(), 8 * 3 * 2 * 2);
        let runs = spec.expand().unwrap();
        // Each outer grid point expands to a 3 × 2 × 2 × 2-scenario
        // presentation block whose members pair up by scenario.
        for (outer, block) in runs.chunks(3 * 2 * 2 * 2).enumerate() {
            for run in block {
                let scenario_idx = usize::from(run.scenario != ScenarioSpec::None);
                assert_eq!(
                    run.seed,
                    single[2 * outer + scenario_idx].seed,
                    "presentation axes must never re-seed realizations"
                );
            }
            // And the block really does vary all three axes.
            assert!(block
                .iter()
                .any(|r| r.arbitration == LaneArbitration::LeastHeld));
            assert!(block.iter().any(|r| r.tag_repair == TagRepair::Blind));
            assert!(block.iter().any(|r| r.engine == EngineKind::EventDriven));
        }
    }

    #[test]
    fn e20_matches_its_advertised_shape() {
        let spec = SweepSpec::e20();
        assert_eq!(spec.grid_len(), 2 * 2 * 9 * 3 * 2 * 5);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 1080);
        assert!(runs.iter().all(|r| r.size.n() == 64));
        assert!(runs
            .iter()
            .all(|r| matches!(r.mode, SwitchingMode::Wormhole { .. })));
        assert!(runs.iter().all(|r| r.policy == RoutingPolicy::TsdtSender));
        // Aware/blind pairs differ only in tag repair: identical seeds,
        // so identical fault timelines.
        let aware: Vec<_> = runs
            .iter()
            .filter(|r| r.tag_repair == TagRepair::Aware)
            .collect();
        let blind: Vec<_> = runs
            .iter()
            .filter(|r| r.tag_repair == TagRepair::Blind)
            .collect();
        assert_eq!(aware.len(), blind.len());
        for (a, b) in aware.iter().zip(&blind) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.mode, b.mode);
            assert_eq!(a.arbitration, b.arbitration);
        }
        assert!(SweepSpec::builtin("e20").is_ok());
    }

    #[test]
    fn mode_axis_multiplies_the_grid_and_varies_before_scenario() {
        let mut spec = SweepSpec::smoke();
        spec.modes = vec![
            SwitchingMode::StoreForward,
            SwitchingMode::Wormhole { flits: 4, lanes: 1 },
        ];
        assert_eq!(spec.grid_len(), 16);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 16);
        // Scenario is innermost: mode holds constant across the 2-scenario
        // block, then flips.
        assert_eq!(runs[0].mode, SwitchingMode::StoreForward);
        assert_eq!(runs[1].mode, SwitchingMode::StoreForward);
        assert_eq!(runs[2].mode, SwitchingMode::Wormhole { flits: 4, lanes: 1 });
        assert_ne!(runs[0].scenario, runs[1].scenario);

        spec.modes = vec![SwitchingMode::Wormhole { flits: 0, lanes: 1 }];
        assert!(spec.expand().is_err(), "zero flits must be rejected");
        spec.modes = vec![SwitchingMode::Wormhole { flits: 4, lanes: 0 }];
        assert!(spec.expand().is_err(), "zero lanes must be rejected");
    }

    #[test]
    fn engine_and_arbitration_labels_are_the_recorded_spellings() {
        // The strings the checked-in E17 and E20 artifacts carry.
        assert_eq!(engine_label(EngineKind::Synchronous), "sync");
        assert_eq!(engine_label(EngineKind::EventDriven), "event");
        assert_eq!(arbitration_label(LaneArbitration::FirstFree), "first-free");
        assert_eq!(
            arbitration_label(LaneArbitration::RoundRobin),
            "round-robin"
        );
        assert_eq!(arbitration_label(LaneArbitration::LeastHeld), "least-held");
    }

    #[test]
    fn engine_axis_multiplies_the_grid_and_varies_before_scenario() {
        let mut spec = SweepSpec::smoke();
        spec.engines = vec![EngineKind::Synchronous, EngineKind::EventDriven];
        assert_eq!(spec.grid_len(), 16);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 16);
        // Scenario is innermost: engine holds constant across the
        // 2-scenario block, then flips.
        assert_eq!(runs[0].engine, EngineKind::Synchronous);
        assert_eq!(runs[1].engine, EngineKind::Synchronous);
        assert_eq!(runs[2].engine, EngineKind::EventDriven);
        assert_ne!(runs[0].scenario, runs[1].scenario);
    }

    #[test]
    fn engine_axis_pairs_share_seeds_and_single_engine_seeds_are_stable() {
        // Runs that differ only in engine must share a seed (the engine
        // axis compares wall clocks over identical realizations), and a
        // single-engine campaign's seeds must be exactly the historical
        // mix(campaign_seed, run_index) so pre-engine artifacts (E13/
        // E15/E16) are reproducible bit-for-bit.
        let single = SweepSpec::smoke().expand().unwrap();
        for run in &single {
            assert_eq!(run.seed, iadm_rng::mix(7, run.index as u64));
        }
        let mut spec = SweepSpec::smoke();
        spec.engines = vec![EngineKind::Synchronous, EngineKind::EventDriven];
        let runs = spec.expand().unwrap();
        for pair in runs.chunks(4) {
            // engine varies before scenario: [sync/s0, sync/s1, event/s0,
            // event/s1] per outer grid point.
            assert_eq!(pair[0].seed, pair[2].seed);
            assert_eq!(pair[1].seed, pair[3].seed);
            assert_ne!(pair[0].seed, pair[1].seed);
        }
        // And the paired seeds are the single-engine seeds for the same
        // outer grid point: adding an engine axis never re-seeds the
        // underlying realizations.
        for (outer, pair) in runs.chunks(4).enumerate() {
            assert_eq!(pair[0].seed, single[2 * outer].seed);
            assert_eq!(pair[1].seed, single[2 * outer + 1].seed);
        }
    }

    #[test]
    fn e17_matches_its_advertised_shape() {
        let spec = SweepSpec::e17();
        assert_eq!(spec.grid_len(), 2 * 2 * 2 * 2 * 2);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 32);
        assert_eq!(
            runs.iter()
                .filter(|r| r.engine == EngineKind::EventDriven)
                .count(),
            16,
            "half the grid runs the event engine"
        );
    }

    #[test]
    fn e16_matches_its_advertised_shape() {
        let spec = SweepSpec::e16();
        assert_eq!(spec.grid_len(), 9 * 3 * 2 * 2);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 108);
        assert!(runs.iter().all(|r| r.size.n() == 64));
        assert_eq!(
            runs.iter()
                .filter(|r| r.mode != SwitchingMode::StoreForward)
                .count(),
            54,
            "half the grid runs wormhole"
        );
    }

    #[test]
    fn e15_matches_its_advertised_shape_and_rejects_zero_rates() {
        let spec = SweepSpec::e15();
        assert_eq!(spec.grid_len(), 3 * 3 * 3);
        let runs = spec.expand().unwrap();
        assert!(runs.iter().all(|r| r.size.n() == 64));

        let mut broken = SweepSpec::e15();
        broken.scenarios = vec![ScenarioSpec::Mtbf { mtbf: 0, mttr: 5 }];
        assert!(broken.expand().is_err(), "zero mtbf must be rejected");
        broken.scenarios = vec![ScenarioSpec::Mtbf { mtbf: 5, mttr: 0 }];
        assert!(broken.expand().is_err(), "zero mttr must be rejected");
    }

    #[test]
    fn loads_parse_or_fail_loudly() {
        assert_eq!(parse_loads("0.1, 0.5,0.9").unwrap(), vec![0.1, 0.5, 0.9]);
        assert!(parse_loads("0.1,heavy").is_err());
    }

    #[test]
    fn workload_axis_multiplies_the_grid_and_varies_before_engine() {
        let mut spec = SweepSpec::smoke();
        spec.loads = vec![0.0];
        spec.workloads = vec![
            WorkloadSpec::RequestResponse {
                clients: 0,
                think: 4,
                req: 1,
                resp: 1,
            },
            WorkloadSpec::Flow {
                clients: 4,
                think: 4,
                packets: 3,
            },
        ];
        spec.engines = vec![EngineKind::Synchronous, EngineKind::EventDriven];
        // 2 policies × 2 workloads × 2 engines × 2 scenarios (one load).
        assert_eq!(spec.grid_len(), 16);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 16);
        // Workload holds across the full engine × scenario block (4 runs),
        // then flips; engine pairs inside each block still share seeds.
        assert_eq!(runs[0].workload, runs[3].workload);
        assert_ne!(runs[0].workload, runs[4].workload);
        assert_eq!(runs[0].seed, runs[2].seed, "sync/event pair shares a seed");
        assert_ne!(runs[0].seed, runs[4].seed, "workloads draw fresh seeds");
    }

    #[test]
    fn closed_loop_workloads_reject_open_loop_axes() {
        let mut spec = SweepSpec::smoke();
        spec.workloads = vec![WorkloadSpec::RequestResponse {
            clients: 0,
            think: 4,
            req: 1,
            resp: 1,
        }];
        // smoke's loads are nonzero: the workload owns injection, so the
        // loads axis must collapse to [0.0].
        assert!(spec.expand().unwrap_err().contains("loads axis"));
        spec.loads = vec![0.0];
        spec.modes = vec![SwitchingMode::Wormhole { flits: 4, lanes: 1 }];
        assert!(spec
            .expand()
            .unwrap_err()
            .contains("store-and-forward runs only"));
        spec.modes = vec![SwitchingMode::StoreForward];
        spec.expand()
            .expect("load 0.0 + SF is the closed-loop shape");

        // Per-size validation: more clients than ports is rejected.
        spec.workloads = vec![WorkloadSpec::RequestResponse {
            clients: 1024,
            think: 4,
            req: 1,
            resp: 1,
        }];
        assert!(spec.expand().is_err(), "N=8 cannot host 1024 clients");
    }

    #[test]
    fn e19_matches_its_advertised_shape() {
        let spec = SweepSpec::e19();
        assert_eq!(spec.grid_len(), 2 * 4 * 3);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 24);
        assert!(runs.iter().all(|r| r.size.n() == 64));
        assert!(runs.iter().all(|r| r.converge == Some((250, 0.05))));
        assert_eq!(
            runs.iter()
                .filter(|r| matches!(r.policy, RoutingPolicy::DChoice { .. }))
                .count(),
            12,
            "half the grid runs d-choice"
        );
        assert!(SweepSpec::builtin("e19").is_ok());
    }

    #[test]
    fn converge_labels_round_trip_and_reject_garbage() {
        for (window, tol) in [(250u64, 0.05), (1, 0.0), (50, 0.1)] {
            assert_eq!(
                parse_converge(&converge_label(window, tol)).unwrap(),
                (window, tol)
            );
        }
        assert!(parse_converge("250").is_err(), "missing tolerance");
        assert!(parse_converge("soon:0.05").is_err(), "bad window");
        assert!(parse_converge("250:tight").is_err(), "bad tolerance");
        assert!(parse_converge("250:-0.1").is_err(), "negative tolerance");
        assert!(parse_converge("250:inf").is_err(), "non-finite tolerance");
    }

    #[test]
    fn expansion_validates_the_convergence_recipe() {
        let mut spec = SweepSpec::smoke();
        spec.converge = Some((50, 0.1));
        let runs = spec.expand().unwrap();
        assert!(runs.iter().all(|r| r.converge == Some((50, 0.1))));

        spec.converge = Some((0, 0.1));
        assert!(spec.expand().is_err(), "zero window");
        spec.converge = Some((150, 0.1));
        assert!(
            spec.expand().is_err(),
            "two 150-cycle windows cannot fit in 200 cycles"
        );
        spec.converge = Some((100, -0.5));
        assert!(spec.expand().is_err(), "negative tolerance");
        spec.converge = Some((100, f64::NAN));
        assert!(spec.expand().is_err(), "NaN tolerance");
    }

    #[test]
    fn e18_matches_its_advertised_shape() {
        let spec = SweepSpec::e18();
        assert_eq!(spec.grid_len(), 2 * 4 * 4 * 2);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 64);
        assert!(runs.iter().all(|r| r.offered_load == 0.0));
        assert!(runs.iter().all(|r| r.workload.is_closed()));
        assert!(SweepSpec::builtin("e18").is_ok());
    }
}
