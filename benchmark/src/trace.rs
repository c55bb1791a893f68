//! The traced run: every campaign run replayed serially through the
//! crates' public functions, with a span around each call into a layer.
//!
//! The replay rebuilds each run exactly as the sweep executor's private
//! per-run builder does (bases, timeline, simulator builder chain, step
//! loop, finish, fragment encode), so its reassembled artifact must equal
//! the executor's byte for byte (`tests/replay.rs`). Spans come only from
//! this file; nothing inside the program is instrumented.

use iadm_bench::json::Json;
use iadm_rng::mix;
use iadm_sim::{EngineKind, SimConfig, SimStats, Simulator, WorkloadSpec};
use iadm_sweep::{
    artifact_prefix, build_shared_bases, campaign_json, journal_header, CampaignResult, RunBases,
    RunRecord, RunSpec, SweepSpec, ARTIFACT_SUFFIX, TIMELINE_SEED_STREAM, WORKLOAD_SEED_STREAM,
};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Campaign run index, for per-run spans.
    pub run: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; spans are written out only at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::close`] and children.
    pub fn open(&mut self, name: &'static str, run: Option<usize>, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        run: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, run, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Writes the spans to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(id)),
                ("name", Json::from(span.name)),
                ("run", opt(span.run)),
                ("parent", opt(span.parent)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
            ]);
            writeln!(out, "{}", line.encode()).map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Exact counts summed from the replayed runs' statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Runs replayed.
    pub runs: u64,
    /// Runs served by a shared base.
    pub shared_runs: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Link transfers (Σ `stage_link_use`; flits for wormhole runs).
    pub hops: u64,
    /// Link transfers of store-and-forward runs (queue push/pop pairs).
    pub sf_hops: u64,
    /// Lane grants of wormhole runs (link transfers ÷ flits per packet).
    pub lane_grants: u64,
    /// Link transfers delivered packets needed (delivered × stages, in
    /// flits for wormhole runs).
    pub useful_hops: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets refused at the source.
    pub refused: u64,
    /// Packets steered off their preferred route.
    pub reroutes: u64,
    /// Fault-timeline events.
    pub fault_events: u64,
    /// Repair-triggered TSDT re-tags.
    pub retags_on_repair: u64,
    /// Flits delivered.
    pub flits_delivered: u64,
    /// Closed-loop requests completed.
    pub requests_completed: u64,
    /// Ports × cycles over all runs.
    pub port_cycles: u64,
    /// Ports × cycles over open-loop runs: Bernoulli arrival trials.
    pub arrival_trials: u64,
}

impl Counts {
    fn add(&mut self, run: &RunSpec, stats: &SimStats) {
        let hops: u64 = stats.stage_link_use.iter().sum();
        let flits = stats.flits_per_packet.max(1);
        let port_cycles = stats.ports as u64 * stats.cycles;
        self.runs += 1;
        self.cycles += stats.cycles;
        self.hops += hops;
        if stats.flits_per_packet > 0 {
            self.lane_grants += hops / flits;
        } else {
            self.sf_hops += hops;
        }
        self.useful_hops += stats.delivered * run.size.stages() as u64 * flits;
        self.injected += stats.injected;
        self.delivered += stats.delivered;
        self.dropped += stats.dropped;
        self.refused += stats.refused;
        self.reroutes += stats.reroutes;
        self.fault_events += stats.fault_events;
        self.retags_on_repair += stats.retags_on_repair;
        self.flits_delivered += stats.flits_delivered;
        self.requests_completed += stats.workload.completed;
        self.port_cycles += port_cycles;
        if run.workload == WorkloadSpec::OpenLoop {
            self.arrival_trials += port_cycles;
        }
    }
}

/// The span names of the replay's layer calls; their sum is the time the
/// trace attributes to a layer.
pub const LAYER_SPANS: [&str; 8] = [
    "sweep.spec.expand",
    "sweep.bases.shared",
    "sweep.bases.realize",
    "fault.timeline",
    "sim.setup",
    "sim.step",
    "sim.finish",
    "sweep.report.fragment",
];

/// A campaign being replayed serially, run by run, with a span around
/// every layer call.
pub struct Replayer<'s> {
    spec: &'s SweepSpec,
    runs: Vec<RunSpec>,
    bases: HashMap<(usize, String), RunBases>,
    /// Fragments of the runs replayed so far, in index order.
    pub fragments: Vec<String>,
    /// Counts summed over the runs replayed so far.
    pub counts: Counts,
}

impl<'s> Replayer<'s> {
    /// Expands `spec` and builds its shared bases, each in a span under
    /// `parent`.
    ///
    /// # Errors
    ///
    /// On an invalid spec, or one the replay cannot mirror: steady-state
    /// convergence and the event engine stop runs on private schedules.
    pub fn new(spec: &'s SweepSpec, tracer: &mut Tracer, parent: usize) -> Result<Self, String> {
        if spec.converge.is_some() || spec.engines.iter().any(|&e| e != EngineKind::Synchronous) {
            return Err("the replay mirrors fixed-horizon synchronous campaigns only".into());
        }
        let root = Some(parent);
        let runs = tracer.time("sweep.spec.expand", None, root, || spec.expand())?;
        let bases = tracer.time("sweep.bases.shared", None, root, || {
            build_shared_bases(&runs)
        });
        Ok(Replayer {
            spec,
            fragments: Vec::with_capacity(runs.len()),
            runs,
            bases,
            counts: Counts::default(),
        })
    }

    /// Replays runs `range`, which must start where the previous range
    /// ended, with one `run` span per run under `parent`.
    pub fn replay(&mut self, range: Range<usize>, tracer: &mut Tracer, parent: usize) {
        assert_eq!(range.start, self.fragments.len(), "ranges replay in order");
        let spec = self.spec;
        let one_run_prefix = artifact_prefix(&spec.name, spec.campaign_seed, 1);
        for run in &self.runs[range] {
            let i = Some(run.index);
            let run_span = tracer.open("run", i, Some(parent));
            let span = Some(run_span);
            // The span covers the shared-base lookup too, so it is never
            // empty: a run pays either the lookup or a fresh realization.
            let (base, shared) = tracer.time("sweep.bases.realize", i, span, || {
                let key = (!run.scenario.realization_is_seeded())
                    .then(|| (run.size.n(), run.scenario.label()));
                match key.and_then(|key| self.bases.get(&key)) {
                    Some(shared) => (shared.clone(), true),
                    None => (RunBases::realize(run), false),
                }
            });
            self.counts.shared_runs += u64::from(shared);
            let timeline = tracer.time("fault.timeline", i, span, || {
                run.scenario.timeline(
                    run.size,
                    mix(run.seed, TIMELINE_SEED_STREAM),
                    run.cycles as u64,
                )
            });
            let mut sim = tracer.time("sim.setup", i, span, || {
                let config = SimConfig {
                    size: run.size,
                    queue_capacity: run.queue_capacity,
                    cycles: run.cycles,
                    warmup: run.warmup,
                    offered_load: run.offered_load,
                    seed: run.seed,
                    engine: run.engine,
                };
                Simulator::with_shared_lut(
                    config,
                    run.policy,
                    run.pattern.clone(),
                    base.blockages.clone(),
                    base.lut.clone(),
                    timeline,
                )
                .with_switching_mode(run.mode)
                .with_lane_arbitration(run.arbitration)
                .with_tag_repair(run.tag_repair)
                .with_workload(&run.workload, mix(run.seed, WORKLOAD_SEED_STREAM))
            });
            tracer.time("sim.step", i, span, || {
                for _ in 0..run.cycles {
                    sim.step();
                }
            });
            let stats = tracer.time("sim.finish", i, span, || sim.finish());
            self.counts.add(run, &stats);
            let one_run = CampaignResult {
                name: spec.name.clone(),
                campaign_seed: spec.campaign_seed,
                runs: vec![RunRecord {
                    spec: run.clone(),
                    faults: base.faults,
                    stats,
                }],
            };
            let fragment = tracer.time("sweep.report.fragment", i, span, || {
                let text = campaign_json(&one_run).encode();
                text[one_run_prefix.len()..text.len() - ARTIFACT_SUFFIX.len()].to_string()
            });
            tracer.close(run_span);
            self.fragments.push(fragment);
        }
    }

    /// The artifact reassembled from the replayed fragments (no trailing
    /// newline); the whole campaign's once every run is replayed.
    pub fn artifact(&self) -> String {
        format!(
            "{}{}{ARTIFACT_SUFFIX}",
            artifact_prefix(&self.spec.name, self.spec.campaign_seed, self.runs.len()),
            self.fragments.join(",")
        )
    }

    /// The journal a whole-campaign stream would write, in index order.
    pub fn journal(&self) -> String {
        std::iter::once(journal_header(self.spec, self.runs.len()))
            .chain(self.fragments.iter().cloned())
            .collect::<Vec<_>>()
            .join("\n")
    }
}
