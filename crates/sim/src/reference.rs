//! The dense reference loop: a second, deliberately naive
//! implementation of the store-and-forward cycle, compiled only into
//! this crate's unit tests, that [`Simulator`]'s statistics are checked
//! against byte for byte.
//!
//! The reference owns its own buffers and phases: a `VecDeque` per
//! link with eager per-cycle occupancy sums, a visit of every stage
//! (last first) and every switch in the engine's rotated order, accept
//! counters cleared for every stage, every waiting source admitted in
//! ascending order, arrivals drawn with plain `gen_bool`, fault events
//! applied with a whole-table route rebuild, and every switch folded at
//! the end. It shares with the engine only what the paper's schemes and
//! the statistics definitions are made of: the routing decision
//! ([`PolicyCtx::decide`] through [`BufferView`]), the TSDT tag cache,
//! the convergence detector, the link fold ([`SimStats::fold_links`]
//! through [`LinkLedger`]) and the workload sources' hooks. The engine's
//! sparse busy-switch gather, sparse accept reset, touched-switch fold,
//! integer-threshold arrival kernel, outage-clock bookkeeping and
//! buffer reuse are therefore each checked against code that has none
//! of them.
//!
//! Wormhole runs are not covered here; they stay pinned by their
//! goldens and by the flit and lane ledgers of `tests/wormhole.rs` and
//! `tests/lanes.rs`.

use crate::engine::{BufferView, ConvergeState, Decision, PolicyCtx};
use crate::stats::LinkLedger;
use crate::tags::{Lookup, TagCache};
use crate::{RoutingPolicy, SimConfig, SimScratch, SimStats, Simulator, TagRepair};
use iadm_core::lut::RouteLut;
use iadm_core::NetworkState;
use iadm_fault::{BlockageMap, FaultTimeline};
use iadm_rng::{Rng, StdRng};
use iadm_topology::{Link, LinkKind};
use iadm_workload::{Injection, TrafficPattern, WorkloadSource, WorkloadSpec, NO_OP};
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything a store-and-forward run is built from, so the engine and
/// the reference run the same point.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    pub(crate) config: SimConfig,
    pub(crate) policy: RoutingPolicy,
    pub(crate) pattern: TrafficPattern,
    pub(crate) blockages: BlockageMap,
    pub(crate) timeline: FaultTimeline,
    /// Gamma-style `3x3` crossbar switches (accept limit 3, not 1).
    pub(crate) crossbar: bool,
    pub(crate) tag_repair: TagRepair,
    /// A closed-loop workload and its RNG seed.
    pub(crate) workload: Option<(WorkloadSpec, u64)>,
    /// Convergence `(window, tol)`.
    pub(crate) converge: Option<(u64, f64)>,
}

impl Run {
    /// A fault-free, open-loop, uniform-traffic run.
    pub(crate) fn new(config: SimConfig, policy: RoutingPolicy) -> Run {
        Run {
            config,
            policy,
            pattern: TrafficPattern::Uniform,
            blockages: BlockageMap::new(config.size),
            timeline: FaultTimeline::empty(config.size),
            crossbar: false,
            tag_repair: TagRepair::default(),
            workload: None,
            converge: None,
        }
    }

    /// The engine's statistics, built over (and handing back) `scratch`,
    /// so a scratch that served an earlier run exercises the engine's
    /// partial reset.
    pub(crate) fn simulator(&self, scratch: &mut SimScratch) -> SimStats {
        let blockages = Arc::new(self.blockages.clone());
        let lut = Arc::new(RouteLut::new(self.config.size, &blockages));
        let mut sim = Simulator::with_scratch(
            scratch,
            self.config,
            self.policy,
            self.pattern.clone(),
            blockages,
            lut,
            self.timeline.clone(),
        )
        .with_tag_repair(self.tag_repair);
        if self.crossbar {
            sim = sim.with_crossbar_switches();
        }
        if let Some((spec, seed)) = &self.workload {
            sim = sim.with_workload(spec, *seed);
        }
        if let Some((window, tol)) = self.converge {
            sim = sim.with_convergence(window, tol);
        }
        sim.run_into(scratch)
    }

    /// The reference loop's statistics.
    pub(crate) fn reference(&self) -> SimStats {
        Reference::new(self).run()
    }
}

/// A queued packet, as the reference keeps it.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    dest: u32,
    injected_at: u64,
    tag_state: Option<u32>,
    op: u32,
}

/// One FIFO per link with eagerly kept counters.
struct Links {
    capacity: usize,
    queues: Vec<VecDeque<Pkt>>,
    high_water: Vec<usize>,
    occupancy_sum: Vec<u64>,
    carried: Vec<u64>,
    samples: u64,
}

impl Links {
    fn push(&mut self, q: usize, packet: Pkt) {
        assert!(
            self.queues[q].len() < self.capacity,
            "push onto a full link"
        );
        self.queues[q].push_back(packet);
        self.high_water[q] = self.high_water[q].max(self.queues[q].len());
    }

    /// Adds every link's length to its occupancy sum: one sample point.
    fn sample(&mut self) {
        for (sum, queue) in self.occupancy_sum.iter_mut().zip(&self.queues) {
            *sum += queue.len() as u64;
        }
        self.samples += 1;
    }
}

impl BufferView for Links {
    fn occupancy(&self, q: usize) -> usize {
        self.queues[q].len()
    }
    fn is_full(&self, q: usize) -> bool {
        self.queues[q].len() >= self.capacity
    }
}

impl LinkLedger for Links {
    fn link_count(&self) -> usize {
        self.queues.len()
    }
    fn resident(&self, q: usize) -> u64 {
        self.queues[q].len() as u64
    }
    fn high_water(&self, q: usize) -> usize {
        self.high_water[q]
    }
    fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupancy_sum[q] as f64 / self.samples as f64
        }
    }
    fn carried(&self, q: usize) -> u64 {
        self.carried[q]
    }
}

/// A closed-loop source with its RNG stream and staging buffer.
struct Workload {
    source: Box<dyn WorkloadSource>,
    rng: StdRng,
    staged: Vec<Injection>,
}

struct Reference {
    config: SimConfig,
    policy: RoutingPolicy,
    pattern: TrafficPattern,
    accept_limit: u8,
    blockages: BlockageMap,
    lut: RouteLut,
    timeline: FaultTimeline,
    next_event: usize,
    links: Links,
    sources: Vec<VecDeque<Pkt>>,
    accepted: Vec<u8>,
    tags: TagCache,
    states: NetworkState,
    sticky: Vec<u8>,
    rng: StdRng,
    stats: SimStats,
    workload: Option<Workload>,
    converge: Option<ConvergeState>,
    /// Per link: the cycle its current outage began, if it is down.
    down_since: Vec<Option<u64>>,
    down_cycles: Vec<u64>,
    ever_down: Vec<bool>,
    cycle: u64,
}

impl Reference {
    fn new(run: &Run) -> Reference {
        let config = run.config;
        config
            .validate()
            .expect("reference run of an invalid config");
        let size = config.size;
        let links = Link::slot_count(size);
        let mut tags = TagCache::default();
        tags.prepare(
            size,
            run.timeline.len(),
            run.policy == RoutingPolicy::TsdtSender,
        );
        tags.repair = run.tag_repair;
        let workload = run.workload.as_ref().and_then(|(spec, seed)| {
            spec.validate(size).expect("invalid workload");
            spec.build(size, config.warmup as u64)
                .map(|source| Workload {
                    source,
                    rng: StdRng::seed_from_u64(*seed),
                    staged: Vec::new(),
                })
        });
        Reference {
            config,
            policy: run.policy,
            pattern: run.pattern.clone(),
            accept_limit: if run.crossbar { 3 } else { 1 },
            lut: RouteLut::new(size, &run.blockages),
            blockages: run.blockages.clone(),
            timeline: run.timeline.clone(),
            next_event: 0,
            links: Links {
                capacity: config.queue_capacity,
                queues: vec![VecDeque::new(); links],
                high_water: vec![0; links],
                occupancy_sum: vec![0; links],
                carried: vec![0; links],
                samples: 0,
            },
            sources: vec![VecDeque::new(); size.n()],
            accepted: vec![0; size.n()],
            tags,
            states: NetworkState::all_c(size),
            sticky: vec![0; size.stages() * size.n()],
            rng: StdRng::seed_from_u64(config.seed),
            stats: SimStats {
                ports: size.n(),
                ..SimStats::default()
            },
            workload,
            converge: run
                .converge
                .map(|(window, tol)| ConvergeState::new(window, tol)),
            down_since: vec![None; links],
            down_cycles: vec![0; links],
            ever_down: vec![false; links],
            cycle: 0,
        }
    }

    fn run(mut self) -> SimStats {
        for _ in 0..self.config.cycles {
            self.cycle();
            if let Some(cv) = self.converge.as_mut() {
                if cv.poll(self.cycle, &mut self.stats) {
                    break;
                }
            }
        }
        self.finish()
    }

    fn decide(&mut self, stage: usize, sw: usize, packet: Pkt) -> Decision {
        PolicyCtx {
            policy: self.policy,
            n: self.config.size.n(),
            dynamic: !self.timeline.is_empty(),
            blockages: &self.blockages,
            lut: &self.lut,
            stats: &mut self.stats,
            states: &mut self.states,
            rng: &mut self.rng,
            sticky: &mut self.sticky,
        }
        .decide(&self.links, stage, sw, packet.dest, packet.tag_state)
    }

    fn cycle(&mut self) {
        self.apply_due_events();
        let size = self.config.size;
        let (n, stages) = (size.n(), size.stages());
        let first = self.cycle as usize % n;
        let rotation = (self.cycle % 3) as usize;
        let kinds: [LinkKind; 3] = std::array::from_fn(|i| LinkKind::ALL[(rotation + i) % 3]);
        for stage in (0..stages).rev() {
            self.accepted.fill(0);
            for i in 0..n {
                let sw = (first + i) % n;
                for kind in kinds {
                    let link = Link::new(stage, sw, kind);
                    let q = link.flat_index(size);
                    let Some(&head) = self.links.queues[q].front() else {
                        continue;
                    };
                    // Packets on a link that went down wait out the outage.
                    if self.blockages.is_blocked(link) {
                        continue;
                    }
                    let to = kind.target(size, stage, sw);
                    if self.accepted[to] >= self.accept_limit {
                        continue;
                    }
                    if stage + 1 == stages {
                        self.accepted[to] += 1;
                        self.links.queues[q].pop_front();
                        self.links.carried[q] += 1;
                        self.exit(to, head);
                        continue;
                    }
                    match self.decide(stage + 1, to, head) {
                        Decision::Enqueue(next) => {
                            self.links.queues[q].pop_front();
                            self.links.carried[q] += 1;
                            let next_q = Link::new(stage + 1, to, next).flat_index(size);
                            self.links.push(next_q, head);
                            self.accepted[to] += 1;
                        }
                        Decision::Stall => {}
                        Decision::Drop => {
                            self.links.queues[q].pop_front();
                            self.drop_packet(head);
                        }
                    }
                }
            }
        }
        for s in 0..n {
            let Some(&head) = self.sources[s].front() else {
                continue;
            };
            match self.decide(0, s, head) {
                Decision::Enqueue(kind) => {
                    self.sources[s].pop_front();
                    self.links
                        .push(Link::new(0, s, kind).flat_index(size), head);
                }
                Decision::Stall => {}
                Decision::Drop => {
                    self.sources[s].pop_front();
                    self.drop_packet(head);
                }
            }
        }
        if self.workload.is_some() {
            self.workload_arrivals();
        } else {
            for s in 0..n {
                if self.rng.gen_bool(self.config.offered_load) {
                    let dest = self.pattern.destination(size, s, &mut self.rng);
                    self.inject(s, dest, NO_OP);
                }
            }
        }
        self.links.sample();
        self.cycle += 1;
    }

    /// A packet leaving the last stage into output port `port`.
    fn exit(&mut self, port: usize, packet: Pkt) {
        if port != packet.dest as usize {
            self.stats.misrouted += 1;
            self.lost(packet.op);
            return;
        }
        self.stats.delivered += 1;
        if packet.injected_at >= self.config.warmup as u64 {
            let latency = self.cycle + 1 - packet.injected_at;
            self.stats.latency_sum += latency;
            self.stats.latency_count += 1;
            self.stats.latency_max = self.stats.latency_max.max(latency);
            self.stats.latency_histogram.record(latency);
        }
        if packet.op != NO_OP {
            let wl = self.workload.as_mut().expect("tracked packet, no workload");
            wl.source
                .on_delivered(packet.op, self.cycle, &mut wl.rng, &mut wl.staged);
        }
    }

    fn drop_packet(&mut self, packet: Pkt) {
        self.stats.dropped += 1;
        if self.down_since.iter().any(Option::is_some) {
            self.stats.dropped_during_outage += 1;
        }
        self.lost(packet.op);
    }

    fn lost(&mut self, op: u32) {
        if op != NO_OP {
            let wl = self.workload.as_mut().expect("tracked packet, no workload");
            wl.source.on_lost(op, self.cycle, &mut wl.rng);
        }
    }

    fn workload_arrivals(&mut self) {
        let mut wl = self.workload.take().expect("workload arrivals");
        wl.source.poll(self.cycle, &mut wl.rng, &mut wl.staged);
        for inj in std::mem::take(&mut wl.staged) {
            if !self.inject(inj.source as usize, inj.dest as usize, inj.op) && inj.op != NO_OP {
                wl.source.on_lost(inj.op, self.cycle, &mut wl.rng);
            }
        }
        self.workload = Some(wl);
    }

    /// Queues a packet at source `s`, tagged by the sender under
    /// `TsdtSender`; returns `false` when the sender refuses it.
    fn inject(&mut self, s: usize, dest: usize, op: u32) -> bool {
        self.stats.injected += 1;
        let mut tag_state = None;
        if self.policy == RoutingPolicy::TsdtSender {
            let outcome = match self.tags.lookup(s, dest) {
                Lookup::Hit(outcome) => outcome,
                lookup => {
                    if lookup == Lookup::RepairStale {
                        self.stats.retags_on_repair += 1;
                    }
                    let outcome =
                        iadm_core::reroute::reroute(self.config.size, &self.blockages, s, dest)
                            .ok()
                            .map(|tag| tag.state_bits() as u32);
                    self.tags.put(s, dest, outcome);
                    outcome
                }
            };
            let Some(state) = outcome else {
                self.stats.refused += 1;
                return false;
            };
            if state != 0 {
                self.stats.reroutes += 1;
            }
            tag_state = Some(state);
        }
        self.sources[s].push_back(Pkt {
            dest: dest as u32,
            injected_at: self.cycle,
            tag_state,
            op,
        });
        true
    }

    /// Applies the timeline events due by this cycle and rebuilds the
    /// route table if the map changed.
    fn apply_due_events(&mut self) {
        let size = self.config.size;
        let mut changed = false;
        while let Some(&event) = self.timeline.events().get(self.next_event) {
            if event.cycle > self.cycle {
                break;
            }
            self.next_event += 1;
            self.stats.fault_events += 1;
            let idx = event.link.flat_index(size);
            // A statically blocked link never went down on the timeline,
            // so it has no outage for a repair to end.
            let flipped = if event.up {
                self.down_since[idx].is_some() && self.blockages.unblock(event.link)
            } else {
                self.blockages.block(event.link)
            };
            if !flipped {
                continue;
            }
            changed = true;
            if event.up {
                self.stats.repair_events += 1;
                self.tags.note_repair();
                let since = self.down_since[idx].take().expect("repair of an up link");
                self.down_cycles[idx] += self.cycle - since;
            } else {
                self.tags.invalidate_all();
                self.down_since[idx] = Some(self.cycle);
                self.ever_down[idx] = true;
            }
        }
        if changed {
            self.lut = RouteLut::new(size, &self.blockages);
        }
    }

    fn finish(mut self) -> SimStats {
        if let Some(wl) = self.workload.take() {
            wl.source.collect(&mut self.stats.workload);
        }
        self.stats.in_flight = self.sources.iter().map(|q| q.len() as u64).sum();
        let size = self.config.size;
        let switches = self.links.queues.len() / 3;
        self.stats.fold_links(&self.links, size, 0..switches);
        if !self.timeline.is_empty() {
            for (idx, since) in self.down_since.iter().enumerate() {
                if let Some(since) = since {
                    self.down_cycles[idx] += self.cycle - since;
                }
            }
            self.stats.links_failed = self.ever_down.iter().filter(|&&d| d).count() as u64;
            self.stats.link_downtime_cycles = self.down_cycles.iter().sum();
            if self.cycle > 0 {
                let mut min = 1.0f64;
                let mut sum = 0.0f64;
                for &down in &self.down_cycles {
                    let availability = 1.0 - down as f64 / self.cycle as f64;
                    min = min.min(availability);
                    sum += availability;
                }
                self.stats.availability_min = min;
                self.stats.availability_mean = sum / self.down_cycles.len() as f64;
            }
        }
        self.stats.cycles = self.cycle;
        self.stats
    }
}

#[path = "../tests/util/goldens.rs"]
mod goldens;

mod tests {
    use super::*;
    use crate::SimConfig;
    use iadm_bench::json::{sim_stats_json, Json};
    use iadm_fault::scenario::{self, KindFilter, ScenarioSpec};
    use iadm_fault::FaultEvent;
    use iadm_topology::Size;

    /// `stats` through the workspace's canonical writer. The writer
    /// takes the `SimStats` of the library build, a distinct type from
    /// this test build's, so every field is moved across; the
    /// exhaustive destructuring stops compiling when a field is added.
    fn json(stats: &SimStats) -> String {
        fn blank<T: Default>(_: fn(&T) -> Json) -> T {
            T::default()
        }
        macro_rules! moved {
            ($($field:ident),* $(,)?) => {{
                let SimStats { $($field),* } = stats.clone();
                let mut out = blank(sim_stats_json);
                $(out.$field = $field;)*
                out
            }};
        }
        let out = moved!(
            injected,
            delivered,
            misrouted,
            dropped,
            refused,
            in_flight,
            latency_sum,
            latency_count,
            latency_max,
            queue_high_water,
            queue_mean_occupancy,
            cycles,
            ports,
            nonstraight_imbalance,
            max_link_load,
            latency_histogram,
            stage_link_use,
            fault_events,
            reroutes,
            dropped_during_outage,
            links_failed,
            link_downtime_cycles,
            availability_min,
            availability_mean,
            repair_events,
            retags_on_repair,
            flits_per_packet,
            flits_injected,
            flits_delivered,
            flits_dropped,
            flits_refused,
            flits_in_flight,
            workload,
            converged_at_cycle,
        );
        sim_stats_json(&out).encode()
    }

    /// Asserts the engine, run over `scratch`, and the reference agree
    /// on `run`: on the JSON artifact bytes, and on every field
    /// (`Debug` prints each float in its shortest round-trip form, so
    /// equal text is equal bits). Returns the engine's statistics.
    fn assert_agree(run: &Run, scratch: &mut SimScratch) -> SimStats {
        let engine = run.simulator(scratch);
        let reference = run.reference();
        let ctx = format!(
            "N={} {:?} load={} crossbar={} {:?} {:?} {:?} events={}",
            run.config.size.n(),
            run.policy,
            run.config.offered_load,
            run.crossbar,
            run.tag_repair,
            run.workload,
            run.converge,
            run.timeline.len()
        );
        assert_eq!(json(&engine), json(&reference), "{ctx}");
        assert_eq!(format!("{engine:?}"), format!("{reference:?}"), "{ctx}");
        engine
    }

    const ALL_POLICIES: [RoutingPolicy; 6] = [
        RoutingPolicy::FixedC,
        RoutingPolicy::SsdtBalance,
        RoutingPolicy::RandomSign,
        RoutingPolicy::TsdtSender,
        RoutingPolicy::DChoice {
            d: 2,
            sticky: false,
        },
        RoutingPolicy::DChoice { d: 2, sticky: true },
    ];

    /// The fault regimes of the grid.
    #[derive(Debug, Clone, Copy)]
    enum Regime {
        FaultFree,
        /// One link down for the middle half of the run.
        Outage,
        /// `links` random links down together for the middle half of
        /// the run (the sweep's `outage:` scenario).
        Burst {
            links: usize,
        },
        Churn {
            mtbf: u64,
            mttr: u64,
        },
    }

    fn timeline(regime: Regime, size: Size, cycles: usize, seed: u64) -> FaultTimeline {
        let (down, up) = (cycles as u64 / 4, 3 * cycles as u64 / 4);
        match regime {
            Regime::FaultFree => FaultTimeline::empty(size),
            Regime::Outage => {
                let link = Link::plus(1, 1);
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
            Regime::Burst { links } => ScenarioSpec::Outage { links, down, up }.timeline(
                size,
                seed ^ 0x71ED,
                cycles as u64,
            ),
            Regime::Churn { mtbf, mttr } => {
                FaultTimeline::mtbf(size, seed ^ 0x71ED, mtbf, mttr, cycles as u64)
            }
        }
    }

    fn config(n: usize, cycles: usize, load: f64, seed: u64) -> SimConfig {
        SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 4,
            offered_load: load,
            seed,
            engine: Default::default(),
        }
    }

    fn run_in(config: SimConfig, policy: RoutingPolicy, regime: Regime) -> Run {
        Run {
            timeline: timeline(regime, config.size, config.cycles, config.seed),
            ..Run::new(config, policy)
        }
    }

    /// Every policy at N ∈ {8, 64, 256} under `regime`, one scratch
    /// carried from point to point.
    fn sweep_regime(regime: Regime) {
        let mut scratch = SimScratch::default();
        for n in [8, 64, 256] {
            for policy in ALL_POLICIES {
                let config = config(n, 400, 0.35, 0xEC0 ^ n as u64);
                assert_agree(&run_in(config, policy, regime), &mut scratch);
            }
        }
    }

    #[test]
    fn reference_agrees_fault_free_across_the_grid() {
        sweep_regime(Regime::FaultFree);
    }

    #[test]
    fn reference_agrees_under_an_explicit_outage_across_the_grid() {
        sweep_regime(Regime::Outage);
    }

    #[test]
    fn reference_agrees_under_a_link_burst_across_the_grid() {
        sweep_regime(Regime::Burst { links: 12 });
    }

    #[test]
    fn reference_agrees_under_mtbf_churn_across_the_grid() {
        sweep_regime(Regime::Churn {
            mtbf: 1000,
            mttr: 200,
        });
    }

    #[test]
    fn reference_agrees_at_low_load_on_large_networks() {
        // A handful of packets on a big fabric: the regime where the
        // engine gathers busy switches from its bitmaps, resets only the
        // accept counters it touched and folds only touched switches.
        let mut scratch = SimScratch::default();
        for n in [256, 1024] {
            let config = config(n, 600, 2.0 / n as f64, 0x10AD ^ n as u64);
            for policy in ALL_POLICIES {
                assert_agree(&run_in(config, policy, Regime::FaultFree), &mut scratch);
            }
            for regime in [
                Regime::Churn {
                    mtbf: 200,
                    mttr: 60,
                },
                Regime::Burst { links: n },
            ] {
                let run = run_in(config, RoutingPolicy::SsdtBalance, regime);
                assert_agree(&run, &mut scratch);
            }
            // Crossbars accept up to three packets per cycle, so the
            // sparse accept reset must clear counts above one.
            for policy in [RoutingPolicy::SsdtBalance, RoutingPolicy::TsdtSender] {
                let run = Run {
                    crossbar: true,
                    ..run_in(config, policy, Regime::FaultFree)
                };
                assert_agree(&run, &mut scratch);
            }
        }
    }

    #[test]
    fn fault_free_tsdt_senders_skip_the_cache_and_agree() {
        // With no blockage and no timeline the engine's senders tag
        // every packet all-C without a cache; the reference still looks
        // each tag up and runs REROUTE on a miss.
        let mut scratch = SimScratch::default();
        for n in [8, 64, 256] {
            for crossbar in [false, true] {
                for converge in [None, Some((100, 0.05))] {
                    let run = Run {
                        crossbar,
                        converge,
                        ..Run::new(
                            config(n, 400, 0.35, 0x75D7 ^ n as u64),
                            RoutingPolicy::TsdtSender,
                        )
                    };
                    let stats = assert_agree(&run, &mut scratch);
                    assert!(stats.injected > 0);
                    assert_eq!((stats.reroutes, stats.refused), (0, 0));
                }
            }
        }
    }

    #[test]
    fn a_statically_blocked_link_ignores_its_timeline_events() {
        // An `mtbf` timeline fails and repairs every link, the statically
        // blocked one too: its failures find it blocked and its repairs
        // must not lift the static fault, so it is never down on the
        // timeline and dropping its events leaves the outage totals.
        let mut scratch = SimScratch::default();
        let config = config(8, 2000, 0.35, 0xB10C);
        let blocked = Link::minus(0, 1);
        let timeline = FaultTimeline::mtbf(config.size, 7, 40, 15, 2000);
        assert!(timeline.events().iter().any(|e| e.link == blocked && e.up));
        let others = timeline.events().iter().filter(|e| e.link != blocked);
        let others = FaultTimeline::from_events(config.size, others.copied());
        let mut blockages = BlockageMap::new(config.size);
        blockages.block(blocked);
        for policy in ALL_POLICIES {
            let run = Run {
                blockages: blockages.clone(),
                timeline: timeline.clone(),
                ..Run::new(config, policy)
            };
            let stats = assert_agree(&run, &mut scratch);
            assert_eq!(stats.fault_events, timeline.len() as u64);
            let without = Run {
                timeline: others.clone(),
                ..run
            };
            let without = without.simulator(&mut scratch);
            assert_eq!(stats.link_downtime_cycles, without.link_downtime_cycles);
            assert_eq!(stats.links_failed, without.links_failed);
        }
    }

    #[test]
    fn reference_agrees_on_degenerate_configs() {
        // Zero load, zero cycles, and a warmup covering the whole run.
        let mut scratch = SimScratch::default();
        for (load, cycles, warmup) in [(0.0, 200, 50), (0.4, 0, 0), (0.4, 120, 120)] {
            let config = SimConfig {
                queue_capacity: 2,
                warmup,
                ..config(8, cycles, load, 3)
            };
            assert_agree(&Run::new(config, RoutingPolicy::SsdtBalance), &mut scratch);
        }
    }

    #[test]
    fn reference_reproduces_every_parity_golden() {
        let config = SimConfig {
            warmup: 150,
            ..config(16, 600, 0.45, 0xC0FFEE)
        };
        let faulted = scenario::random_faults(
            &mut StdRng::seed_from_u64(0xFA),
            config.size,
            6,
            KindFilter::Any,
        );
        let cases = [
            (
                RoutingPolicy::FixedC,
                false,
                goldens::GOLDEN_FIXED_C_FAULT_FREE,
            ),
            (RoutingPolicy::FixedC, true, goldens::GOLDEN_FIXED_C_FAULTED),
            (
                RoutingPolicy::SsdtBalance,
                false,
                goldens::GOLDEN_SSDT_FAULT_FREE,
            ),
            (
                RoutingPolicy::SsdtBalance,
                true,
                goldens::GOLDEN_SSDT_FAULTED,
            ),
            (
                RoutingPolicy::RandomSign,
                false,
                goldens::GOLDEN_RANDOM_SIGN_FAULT_FREE,
            ),
            (
                RoutingPolicy::RandomSign,
                true,
                goldens::GOLDEN_RANDOM_SIGN_FAULTED,
            ),
            (
                RoutingPolicy::TsdtSender,
                false,
                goldens::GOLDEN_TSDT_FAULT_FREE,
            ),
            (
                RoutingPolicy::TsdtSender,
                true,
                goldens::GOLDEN_TSDT_FAULTED,
            ),
        ];
        let mut scratch = SimScratch::default();
        for (policy, is_faulted, golden) in cases {
            let mut run = Run::new(config, policy);
            if is_faulted {
                run.blockages = faulted.clone();
            }
            assert_eq!(
                json(&run.reference()),
                golden,
                "{policy:?} faulted={is_faulted}"
            );
            assert_agree(&run, &mut scratch);
        }
    }

    #[test]
    fn reference_reproduces_every_workload_golden() {
        let config = SimConfig {
            warmup: 150,
            ..config(16, 600, 0.0, 0xC10C)
        };
        let cases = [
            (
                WorkloadSpec::RequestResponse {
                    clients: 0,
                    think: 8,
                    req: 1,
                    resp: 1,
                },
                goldens::GOLDEN_REQUEST_RESPONSE,
            ),
            (
                WorkloadSpec::Flow {
                    clients: 8,
                    think: 10,
                    packets: 3,
                },
                goldens::GOLDEN_FLOW,
            ),
            (
                WorkloadSpec::Collective {
                    participants: 0,
                    think: 16,
                },
                goldens::GOLDEN_ALLREDUCE,
            ),
            (
                WorkloadSpec::Adversarial {
                    load: 0.4,
                    burst: 16,
                },
                goldens::GOLDEN_ADVERSARIAL,
            ),
        ];
        let mut scratch = SimScratch::default();
        for (spec, golden) in cases {
            let run = Run {
                workload: Some((spec.clone(), 0xBEEF)),
                ..Run::new(config, RoutingPolicy::SsdtBalance)
            };
            assert_eq!(json(&run.reference()), golden, "{spec:?}");
            assert_agree(&run, &mut scratch);
        }
    }

    iadm_check::check! {
        /// Random store-and-forward runs, engine against reference:
        /// any size, load, queue depth, horizon, policy (the d-choice
        /// flavours included), fault regime, tag-repair mode, switch
        /// type, closed-loop workload and convergence window. The
        /// engine runs over a scratch left dirty by a run of another
        /// size. Failures shrink toward a minimal configuration.
        fn random_configs_agree_with_the_reference(g; cases = 64) {
            let size = Size::from_stages(g.u32_in(2..=6));
            let cycles = g.usize_in(10..=300);
            let mut cfg = SimConfig {
                size,
                queue_capacity: g.usize_in(1..=6),
                cycles,
                warmup: g.usize_in(0..=cycles / 2),
                offered_load: g.f64_in(0.0..0.8),
                seed: g.u64_any(),
                engine: Default::default(),
            };
            let policy = ALL_POLICIES[g.usize_in(0..=ALL_POLICIES.len() - 1)];
            let regime = match g.u32_in(0..=3) {
                0 => Regime::FaultFree,
                1 => Regime::Outage,
                2 => Regime::Burst { links: g.usize_in(1..=size.n()) },
                _ => Regime::Churn {
                    mtbf: g.usize_in(40..=400) as u64,
                    mttr: g.usize_in(10..=100) as u64,
                },
            };
            let workload = if g.bool_with(0.3) {
                cfg.offered_load = 0.0;
                let think = g.usize_in(0..=12) as u64;
                let spec = match g.u32_in(0..=3) {
                    0 => WorkloadSpec::RequestResponse {
                        clients: g.usize_in(0..=size.n()),
                        think,
                        req: g.u32_in(1..=3),
                        resp: g.u32_in(1..=3),
                    },
                    1 => WorkloadSpec::Flow {
                        clients: g.usize_in(0..=size.n()),
                        think,
                        packets: g.u32_in(1..=4),
                    },
                    2 => WorkloadSpec::Collective { participants: 0, think },
                    _ => WorkloadSpec::Adversarial {
                        load: g.f64_in(0.05..1.0),
                        burst: g.usize_in(1..=32) as u64,
                    },
                };
                Some((spec, g.u64_any()))
            } else {
                None
            };
            let run = Run {
                crossbar: g.bool_with(0.25),
                tag_repair: if g.bool_with(0.5) { TagRepair::Aware } else { TagRepair::Blind },
                workload,
                converge: g
                    .bool_with(0.2)
                    .then(|| (g.usize_in(5..=50) as u64, g.f64_in(0.0..0.3))),
                ..run_in(cfg, policy, regime)
            };
            let mut scratch = SimScratch::default();
            let other = Size::from_stages(g.u32_in(2..=6));
            Run::new(
                SimConfig { size: other, ..config(other.n(), 50, 0.5, 1) },
                RoutingPolicy::SsdtBalance,
            )
            .simulator(&mut scratch);
            let engine = run.simulator(&mut scratch);
            let reference = run.reference();
            iadm_check::check_assert_eq!(
                format!("{engine:?}"),
                format!("{reference:?}"),
                "N={} {policy:?} {regime:?} {:?}", size.n(), run
            );
            iadm_check::check_assert_eq!(json(&engine), json(&reference));
        }
    }
}
