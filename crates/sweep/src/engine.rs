//! The campaign executor: a `std::thread` worker pool over the expanded
//! run list, with shared immutable per-scenario bases and index-ordered
//! result aggregation.
//!
//! # Shared bases
//!
//! Every run needs a realized [`BlockageMap`] and a [`RouteLut`] built
//! against it — `O(topology)` setup that used to be paid per grid point.
//! Runs that differ only in seed, load, policy, engine or workload
//! realize the *same* map whenever their scenario's realization is
//! seed-independent ([`ScenarioSpec::realization_is_seeded`]), so the
//! executor builds one `Arc<BlockageMap>` + `Arc<RouteLut>` per
//! `(size, scenario label)` key up front and hands every matching run a
//! pointer ([`Simulator::with_shared_lut`]). A run whose fault timeline
//! fires patches its table copy-on-write, so the shared base is never
//! modified; a seed-dependent scenario (random faults) keeps the old
//! build-per-run path. Statistics are byte-identical either way — the
//! table a run would have built is exactly the shared one (pinned by
//! `debug_assert!(lut.matches(..))` in the simulator and by the
//! determinism tests).

use crate::spec::{RunSpec, SweepSpec};
use iadm_fault::BlockageMap;
use iadm_sim::{RouteLut, SimConfig, SimScratch, SimStats, Simulator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Stream constant separating a run's *fault* seed from its *traffic*
/// seed (both derive from the run seed; they must not collide).
pub const FAULT_SEED_STREAM: u64 = 0xFA17;

/// Stream constant for the *transient* fault timeline — a third seed
/// stream, distinct from both the traffic seed and the static-fault
/// stream, so a scenario's initial map and its fail/repair schedule
/// never draw correlated randomness.
pub const TIMELINE_SEED_STREAM: u64 = 0x71ED;

/// Stream constant for the closed-loop *workload* generator — a fourth
/// seed stream, so think-time draws never correlate with traffic, fault
/// realization, or timeline randomness.
pub const WORKLOAD_SEED_STREAM: u64 = 0x3C10;

/// One completed run: the resolved spec, the number of faulty links its
/// scenario realized, and the simulator's statistics.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The grid point that was run.
    pub spec: RunSpec,
    /// Blocked links in the realized fault scenario.
    pub faults: usize,
    /// Simulation results.
    pub stats: SimStats,
}

/// A completed campaign: every run of the spec, in run-index order
/// regardless of which worker finished when.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign name (from the spec).
    pub name: String,
    /// The campaign master seed.
    pub campaign_seed: u64,
    /// All runs, sorted by `spec.index`.
    pub runs: Vec<RunRecord>,
}

/// The immutable bases of one realized scenario, shared across every run
/// over it: the blockage map, the route table built against it, and the
/// realized fault count (a pure function of the map, precomputed so
/// workers never rescan it).
#[derive(Debug, Clone)]
pub struct RunBases {
    /// The realized (static) fault map.
    pub blockages: Arc<BlockageMap>,
    /// The route table built against `blockages`.
    pub lut: Arc<RouteLut>,
    /// `blockages.blocked_count()`.
    pub faults: usize,
}

impl RunBases {
    /// Builds the route table for `blockages` and counts them.
    pub fn new(blockages: BlockageMap) -> RunBases {
        let lut = Arc::new(RouteLut::new(blockages.size(), &blockages));
        RunBases {
            faults: blockages.blocked_count(),
            blockages: Arc::new(blockages),
            lut,
        }
    }

    /// Realizes `run`'s scenario and builds its route table — the
    /// `O(topology)` setup shared bases exist to amortize.
    pub fn realize(run: &RunSpec) -> RunBases {
        RunBases::new(run.blockages())
    }
}

impl RunSpec {
    /// The initial fault map this run's scenario realizes, from
    /// `mix(seed, FAULT_SEED_STREAM)`.
    pub fn blockages(&self) -> BlockageMap {
        self.scenario
            .realize(self.size, iadm_rng::mix(self.seed, FAULT_SEED_STREAM))
    }

    /// The simulator for this run over `bases`: the one place a run is
    /// built. The transient timeline seeds from
    /// `mix(seed, TIMELINE_SEED_STREAM)`, a closed-loop workload from
    /// `mix(seed, WORKLOAD_SEED_STREAM)` and the traffic from `seed`, so
    /// the run is fully determined by the spec and its bases.
    ///
    /// The simulator takes its buffers from `scratch`
    /// ([`Simulator::with_scratch`]); a worker that runs many grid points
    /// passes the same scratch each time and hands the buffers back with
    /// [`Simulator::run_into`]. The statistics do not depend on what the
    /// scratch served before.
    pub fn simulator(&self, bases: &RunBases, scratch: &mut SimScratch) -> Simulator {
        let timeline = self.scenario.timeline(
            self.size,
            iadm_rng::mix(self.seed, TIMELINE_SEED_STREAM),
            self.cycles as u64,
        );
        let config = SimConfig {
            size: self.size,
            queue_capacity: self.queue_capacity,
            cycles: self.cycles,
            warmup: self.warmup,
            offered_load: self.offered_load,
            seed: self.seed,
            engine: self.engine,
        };
        let sim = Simulator::with_scratch(
            scratch,
            config,
            self.policy,
            self.pattern.clone(),
            bases.blockages.clone(),
            bases.lut.clone(),
            timeline,
        )
        .with_switching_mode(self.mode)
        .with_lane_arbitration(self.arbitration)
        .with_tag_repair(self.tag_repair)
        .with_workload(
            &self.workload,
            iadm_rng::mix(self.seed, WORKLOAD_SEED_STREAM),
        );
        match self.converge {
            Some((window, tol)) => sim.with_convergence(window, tol),
            None => sim,
        }
    }
}

/// The sharing key of a run's bases, or `None` when the run cannot share
/// (its scenario realizes differently per seed). Two runs with equal keys
/// realize byte-identical maps, so one [`RunBases`] serves both.
fn base_key(run: &RunSpec) -> Option<(usize, String)> {
    (!run.scenario.realization_is_seeded()).then(|| (run.size.n(), run.scenario.label()))
}

/// Builds one [`RunBases`] per distinct sharing key among `runs`
/// (seed-dependent scenarios are skipped — they build per run). The
/// number of keys is bounded by `#sizes × #scenarios`, never by the run
/// count, so the map stays small even for 10^6-run campaigns. Runs are
/// deduplicated by comparing `(N, scenario)` against the few pairs seen
/// so far, so a label is built once per key rather than once per run,
/// and every scenario that realizes the healthy map
/// ([`ScenarioSpec::realizes_healthy`]) at one N shares a single map and
/// route table.
///
/// [`ScenarioSpec::realizes_healthy`]: iadm_fault::scenario::ScenarioSpec::realizes_healthy
pub fn build_shared_bases(runs: &[RunSpec]) -> HashMap<(usize, String), RunBases> {
    let mut distinct: Vec<&RunSpec> = Vec::new();
    for run in runs {
        if !run.scenario.realization_is_seeded()
            && !distinct
                .iter()
                .any(|d| d.size.n() == run.size.n() && d.scenario == run.scenario)
        {
            distinct.push(run);
        }
    }
    let mut healthy: HashMap<usize, RunBases> = HashMap::new();
    let mut bases = HashMap::with_capacity(distinct.len());
    for run in distinct {
        let n = run.size.n();
        let base = if run.scenario.realizes_healthy() {
            healthy
                .entry(n)
                .or_insert_with(|| RunBases::realize(run))
                .clone()
        } else {
            RunBases::realize(run)
        };
        bases.insert((n, run.scenario.label()), base);
    }
    bases
}

/// Executes one grid point. Fully deterministic in the `RunSpec` alone:
/// the fault scenario realizes from `mix(seed, FAULT_SEED_STREAM)`, its
/// transient timeline from `mix(seed, TIMELINE_SEED_STREAM)`, its
/// closed-loop workload from `mix(seed, WORKLOAD_SEED_STREAM)`, and the
/// simulator from `seed`, so no state outside the spec is consulted.
/// Builds its bases from scratch — the campaign executor's shared-bases
/// fast path must agree with this byte-for-byte (tested below).
pub fn execute_run(run: &RunSpec) -> RunRecord {
    let bases = RunBases::realize(run);
    RunRecord {
        spec: run.clone(),
        faults: bases.faults,
        stats: run.simulator(&bases, &mut SimScratch::default()).run(),
    }
}

/// One completed run flowing back from a worker. Deliberately *not* the
/// full [`RunRecord`]: shipping the spec (pattern and workload clones)
/// through the channel per run was pure overhead — the collector already
/// knows the spec by index.
pub(crate) struct Completion {
    /// Run index (the aggregation key).
    pub index: usize,
    /// Blocked links in the realized scenario.
    pub faults: usize,
    /// Simulation results.
    pub stats: SimStats,
    /// The run's encoded JSON fragment, when the caller asked workers to
    /// encode (streaming mode — encoding parallelizes across the pool and
    /// the collector never touches the spec).
    pub encoded: Option<String>,
}

/// Executes `runs[i]` for every `i` in `todo` on `threads` workers,
/// invoking `deliver` once per run in *completion* order (callers that
/// need index order reassemble — see the streaming writer). `encode`
/// asks workers to pre-encode each run's JSON fragment. An error from
/// `deliver` aborts the pool promptly (workers stop at their next
/// completion) and is returned.
pub(crate) fn execute_pool(
    runs: &[RunSpec],
    todo: &[usize],
    bases: &HashMap<(usize, String), RunBases>,
    threads: usize,
    encode: bool,
    deliver: &mut dyn FnMut(Completion) -> Result<(), String>,
) -> Result<(), String> {
    assert!(threads >= 1, "thread count must be at least 1");
    // Each worker keeps one `SimScratch` and runs every grid point it
    // claims over it.
    let complete = |i: usize, scratch: &mut SimScratch| -> Completion {
        let run = &runs[i];
        let realized;
        let base = match base_key(run).and_then(|key| bases.get(&key)) {
            Some(shared) => shared,
            None => {
                realized = RunBases::realize(run);
                &realized
            }
        };
        let faults = base.faults;
        let stats = run.simulator(base, scratch).run_into(scratch);
        let encoded = encode.then(|| crate::report::run_json(run, faults, &stats).encode());
        Completion {
            index: run.index,
            faults,
            stats,
            encoded,
        }
    };
    if threads == 1 {
        // Single-threaded fast path: no pool, no channel, same bytes.
        let mut scratch = SimScratch::default();
        for &i in todo {
            deliver(complete(i, &mut scratch))?;
        }
        return Ok(());
    }
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Completion>();
    let mut failure: Option<String> = None;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(todo.len()) {
            let tx = tx.clone();
            let cursor = &cursor;
            let stop = &stop;
            let complete = &complete;
            scope.spawn(move || {
                let mut scratch = SimScratch::default();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = todo.get(slot) else { break };
                    // A send fails only when the collector bailed early
                    // (a sink error); stop quietly, the error is already
                    // recorded on the collector side.
                    if tx.send(complete(i, &mut scratch)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for completion in rx {
            if let Err(msg) = deliver(completion) {
                failure = Some(msg);
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        // Drain without delivering so in-flight sends never block a
        // worker (the channel is unbounded, but be explicit about the
        // abandoned results).
    });
    match failure {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

/// Expands `spec` and executes every run on `threads` worker threads.
///
/// Work distribution is a shared atomic cursor over the run list (workers
/// race for the next index); workers return `(index, faults, stats)`
/// triples over a channel and the collector places them by run index, so
/// the output — and any JSON encoded from it — is byte-identical for any
/// `threads >= 1`. Immutable bases (blockage map + route table) are
/// built once per `(size, scenario)` key and shared across the pool.
///
/// This variant holds every [`RunRecord`] in memory (the tables the CLI
/// prints need them all); fleet-scale campaigns should stream instead —
/// see [`crate::stream_campaign`], which keeps peak memory at the
/// out-of-order reassembly window.
pub fn run_campaign(spec: &SweepSpec, threads: usize) -> Result<CampaignResult, String> {
    if threads == 0 {
        return Err("thread count must be at least 1".into());
    }
    let runs = spec.expand()?;
    let bases = build_shared_bases(&runs);
    let todo: Vec<usize> = (0..runs.len()).collect();
    let mut slots: Vec<Option<(usize, SimStats)>> = (0..runs.len()).map(|_| None).collect();
    execute_pool(&runs, &todo, &bases, threads, false, &mut |c| {
        debug_assert!(slots[c.index].is_none(), "run {} executed twice", c.index);
        slots[c.index] = Some((c.faults, c.stats));
        Ok(())
    })?;
    let runs = runs
        .into_iter()
        .zip(slots)
        .enumerate()
        .map(|(i, (spec, slot))| {
            let (faults, stats) = slot.ok_or_else(|| format!("run {i} produced no record"))?;
            Ok(RunRecord {
                spec,
                faults,
                stats,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CampaignResult {
        name: spec.name.clone(),
        campaign_seed: spec.campaign_seed,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::campaign_json;

    #[test]
    fn zero_threads_is_an_error() {
        assert!(run_campaign(&SweepSpec::smoke(), 0).is_err());
    }

    #[test]
    fn campaign_runs_arrive_in_index_order() {
        let result = run_campaign(&SweepSpec::smoke(), 3).unwrap();
        for (i, record) in result.runs.iter().enumerate() {
            assert_eq!(record.spec.index, i);
        }
        assert_eq!(result.runs.len(), SweepSpec::smoke().grid_len());
    }

    #[test]
    fn execute_run_is_a_pure_function_of_the_spec() {
        let runs = SweepSpec::smoke().expand().unwrap();
        let a = execute_run(&runs[3]);
        let b = execute_run(&runs[3]);
        assert_eq!(a.stats.delivered, b.stats.delivered);
        assert_eq!(a.stats.latency_sum, b.stats.latency_sum);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn shared_bases_reproduce_the_fresh_build_byte_for_byte() {
        // The sharing fast path against the build-per-run reference:
        // identical artifacts, including a churn scenario (whose runs
        // must copy-on-write the shared table, never corrupt it).
        let mut spec = SweepSpec::smoke();
        spec.scenarios
            .push(iadm_fault::scenario::ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 });
        let shared = run_campaign(&spec, 2).unwrap();
        let fresh = CampaignResult {
            name: spec.name.clone(),
            campaign_seed: spec.campaign_seed,
            runs: spec.expand().unwrap().iter().map(execute_run).collect(),
        };
        assert_eq!(
            campaign_json(&shared).encode(),
            campaign_json(&fresh).encode()
        );
    }

    #[test]
    fn shared_bases_cover_exactly_the_unseeded_scenarios() {
        let mut spec = SweepSpec::smoke();
        spec.scenarios
            .push(iadm_fault::scenario::ScenarioSpec::RandomLinks {
                count: 1,
                filter: iadm_fault::scenario::KindFilter::Any,
            });
        let runs = spec.expand().unwrap();
        let bases = build_shared_bases(&runs);
        // smoke has two unseeded scenarios (none, double) at one size;
        // the random scenario must not be cached.
        assert_eq!(bases.len(), 2);
        assert!(bases.contains_key(&(8, "none".to_string())));
        assert!(bases.contains_key(&(8, "double:S1:1".to_string())));
        let doubled = &bases[&(8, "double:S1:1".to_string())];
        assert_eq!(doubled.faults, 2);
        assert!(doubled.lut.matches(&doubled.blockages));
    }

    #[test]
    fn healthy_scenarios_share_one_base_per_size() {
        use iadm_fault::scenario::ScenarioSpec;
        let mut spec = SweepSpec::smoke();
        spec.sizes = vec![8, 16];
        spec.scenarios = vec![
            ScenarioSpec::None,
            ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 },
            ScenarioSpec::Outage {
                links: 2,
                down: 10,
                up: 50,
            },
            ScenarioSpec::DoubleNonstraight {
                stage: 1,
                switch: 1,
            },
        ];
        let bases = build_shared_bases(&spec.expand().unwrap());
        assert_eq!(bases.len(), 8);
        for n in [8, 16] {
            let none = &bases[&(n, "none".to_string())];
            for label in ["mtbf:60:20", "outage:2:10:50"] {
                let other = &bases[&(n, label.to_string())];
                assert!(
                    Arc::ptr_eq(&none.blockages, &other.blockages),
                    "N={n} {label}"
                );
                assert!(Arc::ptr_eq(&none.lut, &other.lut), "N={n} {label}");
            }
            let doubled = &bases[&(n, "double:S1:1".to_string())];
            assert!(!Arc::ptr_eq(&none.lut, &doubled.lut));
            assert_eq!(doubled.faults, 2);
        }
        assert!(!Arc::ptr_eq(
            &bases[&(8, "none".to_string())].lut,
            &bases[&(16, "none".to_string())].lut
        ));
    }

    #[test]
    fn mtbf_runs_churn_deterministically_at_any_thread_count() {
        let mut spec = SweepSpec::smoke();
        spec.scenarios = vec![iadm_fault::scenario::ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 }];
        let a = run_campaign(&spec, 1).unwrap();
        let b = run_campaign(&spec, 3).unwrap();
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert!(
                ra.stats.fault_events > 0,
                "run {} never churned",
                ra.spec.index
            );
            assert!(ra.stats.is_conserved());
            assert_eq!(ra.stats.misrouted, 0);
            assert_eq!(ra.stats.delivered, rb.stats.delivered);
            assert_eq!(ra.stats.fault_events, rb.stats.fault_events);
            assert_eq!(ra.stats.link_downtime_cycles, rb.stats.link_downtime_cycles);
        }
    }

    #[test]
    fn wormhole_runs_conserve_flits_at_any_thread_count() {
        let mut spec = SweepSpec::smoke();
        spec.modes = vec![iadm_sim::SwitchingMode::Wormhole { flits: 3, lanes: 1 }];
        let a = run_campaign(&spec, 1).unwrap();
        let b = run_campaign(&spec, 3).unwrap();
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert!(ra.stats.flits_conserved(), "run {}", ra.spec.index);
            assert_eq!(ra.stats.flits_per_packet, 3);
            assert!(ra.stats.flits_delivered > 0);
            assert_eq!(ra.stats.flits_delivered, rb.stats.flits_delivered);
            assert_eq!(ra.stats.latency_sum, rb.stats.latency_sum);
        }
    }

    #[test]
    fn event_engine_runs_match_synchronous_runs_exactly() {
        // The sweep-level face of the equivalence contract: the same
        // campaign on the other engine produces identical statistics.
        let mut spec = SweepSpec::smoke();
        spec.scenarios
            .push(iadm_fault::scenario::ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 });
        let sync = run_campaign(&spec, 2).unwrap();
        spec.engines = vec![iadm_sim::EngineKind::EventDriven];
        let event = run_campaign(&spec, 2).unwrap();
        assert_eq!(sync.runs.len(), event.runs.len());
        for (rs, re) in sync.runs.iter().zip(&event.runs) {
            assert_eq!(
                rs.stats.delivered, re.stats.delivered,
                "run {}",
                rs.spec.index
            );
            assert_eq!(rs.stats.latency_sum, re.stats.latency_sum);
            assert_eq!(rs.stats.fault_events, re.stats.fault_events);
            assert_eq!(rs.faults, re.faults);
        }
    }

    #[test]
    fn faulted_smoke_runs_actually_realize_faults() {
        let result = run_campaign(&SweepSpec::smoke(), 2).unwrap();
        assert!(result.runs.iter().any(|r| r.faults == 2));
        assert!(result.runs.iter().any(|r| r.faults == 0));
        assert!(result.runs.iter().all(|r| r.stats.is_conserved()));
    }

    #[test]
    fn a_sink_error_aborts_the_pool_and_propagates() {
        let runs = SweepSpec::smoke().expand().unwrap();
        let bases = build_shared_bases(&runs);
        let todo: Vec<usize> = (0..runs.len()).collect();
        let mut delivered = 0usize;
        let err = execute_pool(&runs, &todo, &bases, 3, false, &mut |_| {
            delivered += 1;
            if delivered == 2 {
                Err("sink full".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "sink full");
        assert_eq!(delivered, 2, "no deliveries after the error");
    }
}
