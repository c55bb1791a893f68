//! The IADM campaign benchmark.
//!
//! One invocation runs one workload — a fixed `iadm sweep` campaign — in
//! one of two modes and ends its standard output with a one-line JSON
//! result (see [`metrics::result_line`]):
//!
//! - **untraced** ([`untraced`]): the campaign streams through the real
//!   executor into a journal and an artifact, repeated for the requested
//!   time; every repetition is validated and the end-to-end metrics are
//!   medians over repetitions;
//! - **traced** ([`traced`]): the same runs replayed serially with a span
//!   around every layer call, the executor timed at 1 and 2 threads, and
//!   isolated operation costs, giving the per-layer metrics.
//!
//! Paths are relative to the repository root, which is the working
//! directory `run.sh` sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod metrics;
pub mod ops;
pub mod spread;
pub mod stats;
pub mod trace;
pub mod validate;
pub mod workloads;

use campaign::{stream_part, stream_to_files, time_setup, validate_parts, Part};
use iadm_bench::json::assert_round_trip;
use iadm_sweep::shard_range;
use metrics::{result_line, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Replayer, Tracer, LAYER_SPANS};
use validate::{validate_campaign, Tally};
use workloads::{Workload, DEFAULT_SEED};

/// Where invocations write their scratch files and traces.
pub const OUT_DIR: &str = "target/benchmark";

/// Set-up is sampled at least this often per untraced invocation, and
/// until [`SETUP_BUDGET`] is spent (at most [`SETUP_MAX_SAMPLES`] times);
/// the median is reported. Set-up takes 50 µs to 2 ms, so samples
/// bunched into a few milliseconds would leave its median at the mercy of
/// one burst of load from elsewhere on the host.
const SETUP_MIN_SAMPLES: usize = 9;
const SETUP_MAX_SAMPLES: usize = 100_000;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Fewest campaign repetitions per untraced invocation.
const MIN_REPS: usize = 3;

/// The scratch directory for journals and artifacts.
fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The recorded artifact digest, when `seed` is the seed it belongs to.
fn expected_digest(workload: &Workload, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(workload.digest)
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The untraced invocation: set-up timed repeatedly, then the campaign
/// streamed and validated at least [`MIN_REPS`] times and for as long as
/// another repetition still ends within `seconds`. Returns the result
/// line.
pub fn untraced(workload: &Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let campaign = workload.campaign(seed)?;
    let digest = expected_digest(workload, seed);
    let dir = work_dir()?;
    // Set-up is sampled first: after the repetitions, its cost would
    // depend on how they left the heap, which differs between processes.
    let mut setup = Vec::new();
    let mut spent = Duration::ZERO;
    while setup.len() < SETUP_MIN_SAMPLES
        || (spent < SETUP_BUDGET && setup.len() < SETUP_MAX_SAMPLES)
    {
        let sample = time_setup(&campaign)?;
        spent += sample;
        setup.push(sample.as_secs_f64());
    }
    let started = Instant::now();
    let mut tally = Tally::default();
    let (mut walls, mut runs_per_s, mut pkts_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    while walls.len() < MIN_REPS
        || started.elapsed().as_secs_f64() + stats::median(&walls) <= seconds
    {
        let rep = stream_to_files(&campaign, campaign.threads, &dir, digest)?;
        let wall = rep.wall.as_secs_f64();
        if walls.is_empty() {
            // Peak memory as `iadm sweep` has it: one campaign per
            // process. Later repetitions reuse a heap the earlier ones
            // fragmented, by an amount that differs between processes.
            peak_rss = peak_rss_mb()?;
        }
        walls.push(wall);
        eprintln!(
            "{} rep {}: {wall:.3} s, {} of {} runs failed, artifact digest {:#018x}",
            workload.name,
            walls.len(),
            rep.tally.failed,
            rep.tally.attempted,
            validate::fnv1a64(rep.artifact.as_bytes()),
        );
        runs_per_s.push((rep.tally.attempted - rep.tally.failed) as f64 / wall);
        pkts_per_s.push(rep.tally.delivered as f64 / wall);
        tally.add(rep.tally);
    }
    let values = BTreeMap::from([
        ("runs_per_s", stats::median(&runs_per_s)),
        ("sim_pkts_per_s", stats::median(&pkts_per_s)),
        ("setup_s", stats::median(&setup)),
        ("peak_rss_mb", peak_rss),
    ]);
    result_line(tally, &END_TO_END, &values)
}

/// Chunks a traced invocation splits its campaign into (at most one per
/// run). The replay and the one-thread executor alternate chunk by chunk,
/// so a slow spell on the host slows both alike and the unattributed share
/// that compares them stays a property of the program.
const TRACE_CHUNKS: usize = 8;

/// The traced invocation: replay with spans, alternating with the
/// executor at 1 thread; validation; the executor at 2 threads; and
/// isolated operation costs. Writes the spans to
/// `target/benchmark/trace/<workload>.jsonl` and returns the result line.
pub fn traced(workload: &Workload, seed: u64) -> Result<String, String> {
    let campaign = workload.campaign(seed)?;
    let spec = &campaign.spec;
    let digest = expected_digest(workload, seed);
    let dir = work_dir()?;
    let mut tracer = Tracer::default();

    let span = tracer.open("replay", None, None);
    let mut replayer = Replayer::new(spec, &mut tracer, span)?;
    tracer.close(span);
    let total = spec.grid_len();
    let chunks = TRACE_CHUNKS.min(total).max(1);
    let mut t1 = Part::default();
    for k in 1..=chunks {
        let range = shard_range(total, k, chunks)?;
        let span = tracer.open("replay", None, None);
        replayer.replay(range.clone(), &mut tracer, span);
        tracer.close(span);
        t1.extend(tracer.time("executor.threads1", None, None, || {
            stream_part(&campaign, 1, range, &dir)
        })?);
    }
    let t1 = validate_parts(&campaign, t1, digest);
    let replay_ns = tracer.total_ns("replay") as f64;
    let artifact = replayer.artifact();
    let mut replayed = validate_campaign(spec, total, &artifact, &replayer.journal(), digest);
    let round_trips = tracer.time("bench.json.validate", None, None, || {
        assert_round_trip(&artifact).is_ok()
    });
    let t2 = tracer.time("executor.threads2", None, None, || {
        stream_to_files(&campaign, 2, &dir, digest)
    })?;
    // Replay fidelity: the replayed artifact must be the executor's.
    if !round_trips || artifact != t1.artifact {
        replayed.failed = replayed.attempted;
    }
    let mut tally = replayed;
    tally.add(t1.tally);
    tally.add(t2.tally);

    let shape = ops::Shape::of(spec)?;
    let op = tracer.time("ops", None, None, || ops::measure(shape, seed));
    tracer.write_jsonl(
        &Path::new(OUT_DIR)
            .join("trace")
            .join(format!("{}.jsonl", workload.name)),
    )?;

    let c = replayer.counts;
    let ns = |name: &str| tracer.total_ns(name) as f64;
    let layer_ns: f64 = LAYER_SPANS.iter().map(|name| ns(name)).sum();
    let runs = c.runs as f64;
    let step = ns("sim.step");
    let t1_ns = t1.wall.as_nanos() as f64;
    let t2_ns = t2.wall.as_nanos() as f64;
    let values = BTreeMap::from([
        ("sweep.spec.expand_ms", ns("sweep.spec.expand") / 1e6),
        ("sweep.bases.shared_ms", ns("sweep.bases.shared") / 1e6),
        (
            "sweep.bases.realize_us_per_run",
            ratio(ns("sweep.bases.realize") / 1e3, runs),
        ),
        (
            "sweep.bases.shared_run_share",
            ratio(c.shared_runs as f64, runs),
        ),
        (
            "fault.timeline.us_per_run",
            ratio(ns("fault.timeline") / 1e3, runs),
        ),
        ("sim.setup.us_per_run", ratio(ns("sim.setup") / 1e3, runs)),
        ("sim.setup.share", ratio(ns("sim.setup"), layer_ns)),
        ("sim.step.ns_per_cycle", ratio(step, c.cycles as f64)),
        ("sim.step.ns_per_hop", ratio(step, c.hops as f64)),
        ("sim.step.share", ratio(step, layer_ns)),
        ("sim.finish.us_per_run", ratio(ns("sim.finish") / 1e3, runs)),
        ("sim.finish.share", ratio(ns("sim.finish"), layer_ns)),
        (
            "sweep.report.fragment_us",
            ratio(ns("sweep.report.fragment") / 1e3, runs),
        ),
        ("bench.json.validate_ms", ns("bench.json.validate") / 1e6),
        ("count.artifact_bytes", artifact.len() as f64),
        (
            "sweep.executor.parallel_efficiency",
            ratio(t1_ns, 2.0 * t2_ns),
        ),
        ("trace.unattributed_share", ratio(t1_ns - layer_ns, t1_ns)),
        ("core.lut.entry_ns", op.lut_entry),
        ("core.candidates.ns", op.candidates),
        ("core.reroute.tag_ns", op.reroute_tag),
        ("core.lut.refresh_switch_ns", op.refresh_switch),
        ("sim.queue.push_pop_ns", op.queue_push_pop),
        ("sim.reservation.grant_release_ns", op.grant_release),
        ("rng.bernoulli_ns", op.bernoulli),
        (
            "attr.decide_share",
            ratio(
                (op.lut_entry + op.candidates) * (c.sf_hops + c.lane_grants) as f64,
                step,
            ),
        ),
        (
            "attr.queue_share",
            ratio(op.queue_push_pop * c.sf_hops as f64, step),
        ),
        (
            "attr.reservation_share",
            ratio(op.grant_release * c.lane_grants as f64, step),
        ),
        (
            "attr.arrivals_share",
            ratio(op.bernoulli * c.arrival_trials as f64, step),
        ),
        ("count.runs", runs),
        ("count.cycles", c.cycles as f64),
        ("count.hops", c.hops as f64),
        ("count.injected", c.injected as f64),
        ("count.delivered", c.delivered as f64),
        ("count.dropped", c.dropped as f64),
        ("count.refused", c.refused as f64),
        ("count.reroutes", c.reroutes as f64),
        ("count.fault_events", c.fault_events as f64),
        ("count.retags_on_repair", c.retags_on_repair as f64),
        ("count.flits_delivered", c.flits_delivered as f64),
        ("count.requests_completed", c.requests_completed as f64),
        (
            "sim.useful_hop_ratio",
            ratio(c.useful_hops as f64, c.hops as f64),
        ),
        (
            "sim.arrival_hit_ratio",
            ratio(c.injected as f64, c.port_cycles as f64),
        ),
        ("trace.overhead_share", ratio(replay_ns - t1_ns, t1_ns)),
    ]);
    result_line(tally, &PER_LAYER, &values)
}
