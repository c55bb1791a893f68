//! Isolated costs of the public operations the simulator's hot path is
//! made of, each timed on a random operation stream shaped by a
//! workload's network size, queue capacity, lane count and offered load.
//!
//! These are costs out of context: no cache pressure from the rest of a
//! cycle, no branch history from real traffic. The attribution rows built
//! from them are estimates; an in-engine phase clock would replace them.

use iadm_core::candidate_kinds;
use iadm_core::reroute::reroute;
use iadm_fault::scenario::{KindFilter, ScenarioSpec};
use iadm_fault::BlockageMap;
use iadm_rng::{Rng, StdRng};
use iadm_sim::{Packet, QueueArena, ReservationTable, RouteLut, SwitchingMode};
use iadm_sweep::SweepSpec;
use iadm_topology::{Link, Size};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The operation-stream shape taken from a campaign.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The campaign's largest network size.
    pub size: Size,
    /// Its largest queue capacity.
    pub capacity: usize,
    /// Its largest lane count (1 without wormhole modes).
    pub lanes: usize,
    /// Its highest offered load.
    pub load: f64,
}

impl Shape {
    /// The shape of `spec`'s heaviest grid point.
    pub fn of(spec: &SweepSpec) -> Result<Shape, String> {
        let n = spec.sizes.iter().copied().max().ok_or("no sizes")?;
        Ok(Shape {
            size: Size::new(n).map_err(|e| e.to_string())?,
            capacity: spec
                .queue_capacities
                .iter()
                .copied()
                .max()
                .ok_or("no queues")?,
            lanes: spec
                .modes
                .iter()
                .map(|mode| match mode {
                    SwitchingMode::Wormhole { lanes, .. } => *lanes as usize,
                    SwitchingMode::StoreForward => 1,
                })
                .max()
                .ok_or("no modes")?,
            load: spec.loads.iter().copied().fold(0.0, f64::max),
        })
    }
}

/// Nanoseconds per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCosts {
    /// `RouteLut::entry` read.
    pub lut_entry: f64,
    /// `candidate_kinds` over a faulted map.
    pub candidates: f64,
    /// `reroute` from scratch: the TSDT sender's tag-cache miss path.
    pub reroute_tag: f64,
    /// `RouteLut::refresh_switch` (a churn patch).
    pub refresh_switch: f64,
    /// `QueueArena::push` then `pop`.
    pub queue_push_pop: f64,
    /// `ReservationTable::reserve` then `release`.
    pub grant_release: f64,
    /// One Bernoulli arrival trial at the offered load.
    pub bernoulli: f64,
}

/// Length of each precomputed operation stream.
const STREAM: usize = 1 << 12;
/// Timed batches per operation; the median is reported.
const BATCHES: usize = 5;
/// Minimum duration of one timed batch.
const MIN_BATCH: Duration = Duration::from_millis(10);

/// Times every operation on streams drawn from `seed`.
pub fn measure(shape: Shape, seed: u64) -> OpCosts {
    let size = shape.size;
    let (n, stages) = (size.n(), size.stages());
    let links = Link::slot_count(size);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw =
        |bound: usize| -> Vec<usize> { (0..STREAM).map(|_| rng.gen_range(0..bound)).collect() };
    let (stage, sw, bit, dest, link) = (draw(stages), draw(n), draw(2), draw(n), draw(links));
    // Eight random faults: REROUTE and the candidate filter see real
    // blockages without disconnecting the network.
    let faulted: BlockageMap = ScenarioSpec::RandomLinks {
        count: 8,
        filter: KindFilter::Any,
    }
    .realize(size, seed);
    let mut lut = RouteLut::new(size, &faulted);

    let lut_entry = per_op(|i| {
        let entry = lut.entry(stage[i], sw[i], bit[i]);
        entry.c_kind().index() as u64 + u64::from(entry.c_free())
    });
    let candidates =
        per_op(|i| candidate_kinds(size, &faulted, stage[i], sw[i], dest[i]).len() as u64);
    let reroute_tag =
        per_op(|i| reroute(size, &faulted, sw[i], dest[i]).map_or(0, |tag| tag.raw() as u64));
    let refresh_switch = per_op(|i| {
        lut.refresh_switch(stage[i], sw[i], &faulted);
        0
    });
    let mut arena = QueueArena::new(links, shape.capacity);
    let queue_push_pop = per_op(|i| {
        arena.push(link[i], Packet::new(dest[i], 0));
        arena.pop(link[i]).map_or(0, |p| u64::from(p.dest))
    });
    let mut table = ReservationTable::new(links, shape.lanes);
    let grant_release = per_op(|i| match table.reserve(link[i], i as u32) {
        Some(slot) => {
            table.release(slot);
            slot as u64
        }
        None => 0,
    });
    let mut arrivals = StdRng::seed_from_u64(seed ^ 1);
    let bernoulli = per_op(|_| u64::from(arrivals.gen_bool(shape.load)));
    OpCosts {
        lut_entry,
        candidates,
        reroute_tag,
        refresh_switch,
        queue_push_pop,
        grant_release,
        bernoulli,
    }
}

/// The median over [`BATCHES`] of nanoseconds per `op(i)` call, `i`
/// cycling through the stream; each batch repeats the stream until it
/// lasts at least [`MIN_BATCH`].
fn per_op(mut op: impl FnMut(usize) -> u64) -> f64 {
    let mut batch = |passes: usize| {
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..passes {
            for i in 0..STREAM {
                acc = acc.wrapping_add(op(black_box(i)));
            }
        }
        black_box(acc);
        started.elapsed()
    };
    let mut passes = 1;
    while batch(passes) < MIN_BATCH {
        passes *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(passes).as_nanos() as f64 / (passes * STREAM) as f64)
        .collect();
    crate::stats::median(&samples)
}
