//! The buffers a run allocates in proportion to the network, kept from
//! one run to the next: a worker that runs many simulations in turn
//! resets only what each run touched instead of writing megabytes of
//! fresh buffers per run.

use crate::packet::Packet;
use crate::queue::QueueArena;
use crate::tags::TagCache;
use iadm_core::NetworkState;
use iadm_topology::{Link, Size};
use std::collections::VecDeque;

/// The reusable buffers of a [`Simulator`](crate::Simulator): the queue
/// arena, source queues, per-switch loads and occupancy bits, SSDT
/// switch states, sticky d-choice memory, per-link outage clocks and
/// the TSDT tag-cache lines.
///
/// [`Simulator::with_scratch`](crate::Simulator::with_scratch) takes
/// the buffers and sizes them for its run; a new, empty scratch is what
/// every other constructor uses. [`Simulator::run_into`] hands them back
/// with only what the run touched reset: the switches whose occupancy
/// bit it ever set and the links that ever failed. Reused buffers give
/// byte-identical statistics to new ones.
///
/// A worker holds its scratch between runs, so a run keeps only the
/// buffers it uses: one that never reads the tag cache, keeps no outage
/// clocks, no sticky memory or no flat arena (the event engine, wormhole
/// switching) releases them, and a source queue that grew past a small
/// allocation is freed at the end of the run. What a worker holds is
/// then what the run in progress would have allocated anyway.
///
/// [`Simulator::run_into`]: crate::Simulator::run_into
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) queues: QueueArena,
    pub(crate) switch_load: Vec<u32>,
    pub(crate) switch_bits: Vec<u64>,
    /// One bit per `(stage, switch)`, laid out like `switch_bits`: set
    /// the first time the switch's occupancy bit is set, so it marks
    /// every switch with a queued packet, a non-zero queue counter or a
    /// non-zero load since the run began.
    pub(crate) touched: Vec<u64>,
    pub(crate) live_scratch: Vec<u32>,
    pub(crate) stage_load: Vec<u64>,
    pub(crate) accepted: Vec<u8>,
    pub(crate) source_queues: Vec<VecDeque<Packet>>,
    pub(crate) source_bits: Vec<u64>,
    pub(crate) tag_cache: TagCache,
    pub(crate) down_since: Vec<u64>,
    pub(crate) down_cycles: Vec<u64>,
    pub(crate) ever_down: Vec<bool>,
    /// Flat indices of the links with `ever_down` set, in first-failure
    /// order.
    pub(crate) failed: Vec<u32>,
    pub(crate) states: Option<NetworkState>,
    pub(crate) sticky: Vec<u8>,
    pub(crate) downed_scratch: Vec<usize>,
}

/// Packets of room a source queue may keep for the next run: one small
/// allocation per source. A queue that grew larger is freed at the end
/// of its run, so a run that backed its sources up deeply does not leave
/// that memory held through the runs after it.
const KEPT_SOURCE_SLOTS: usize = 4;

/// What a run needs sized, beyond its network size.
pub(crate) struct Needs {
    /// Queue capacity, when the run buffers packets in the flat arena
    /// (the synchronous store-and-forward engine).
    pub(crate) arena: Option<usize>,
    /// The run has a fault timeline (outage clocks are kept).
    pub(crate) dynamic: bool,
    /// Timeline events (the tag cache's epoch budget).
    pub(crate) events: usize,
    /// The policy consults the tag cache.
    pub(crate) tags: bool,
    /// The policy keeps sticky d-choice memory.
    pub(crate) sticky: bool,
}

impl SimScratch {
    /// Sizes every buffer for a run over `size`. Every buffer must be
    /// clean: new, or [`reset`](SimScratch::reset) after its last run.
    pub(crate) fn prepare(&mut self, size: Size, needs: &Needs) {
        let (n, stages) = (size.n(), size.stages());
        let words = n.div_ceil(64);
        // A buffer this run does not use is released rather than held
        // through it.
        match needs.arena {
            Some(capacity) => self.queues.prepare(Link::slot_count(size), capacity),
            None => self.queues = QueueArena::default(),
        }
        fit(&mut self.switch_load, stages * n, 0);
        fit(&mut self.switch_bits, stages * words, 0);
        fit(&mut self.touched, stages * words, 0);
        self.live_scratch.reserve(n);
        fit(&mut self.stage_load, stages, 0);
        fit(&mut self.accepted, n, 0);
        self.source_queues.resize_with(n, VecDeque::new);
        fit(&mut self.source_bits, words, 0);
        self.tag_cache.prepare(size, needs.events, needs.tags);
        if needs.dynamic {
            let slots = Link::slot_count(size);
            fit(&mut self.down_since, slots, u64::MAX);
            fit(&mut self.down_cycles, slots, 0);
            fit(&mut self.ever_down, slots, false);
        } else {
            self.down_since = Vec::new();
            self.down_cycles = Vec::new();
            self.ever_down = Vec::new();
        }
        match self.states.as_mut() {
            Some(states) => states.reset(size),
            None => self.states = Some(NetworkState::all_c(size)),
        }
        if needs.sticky {
            fit(&mut self.sticky, stages * n, 0);
        } else {
            self.sticky = Vec::new();
        }
    }

    /// Cleans what a run over `size` left behind, so the buffers can be
    /// [`prepare`](SimScratch::prepare)d for the next run. `arena` says
    /// whether the run buffered packets in the flat arena.
    pub(crate) fn reset(&mut self, size: Size, arena: bool) {
        let n = size.n();
        for (w, word) in self.touched.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            for switch in switches_of(w, std::mem::take(word), n) {
                self.switch_load[switch] = 0;
                if arena {
                    for q in 3 * switch..3 * switch + 3 {
                        self.queues.clear(q);
                    }
                }
            }
            self.switch_bits[w] = 0;
        }
        self.stage_load.fill(0);
        self.accepted.fill(0);
        self.source_bits.fill(0);
        for queue in &mut self.source_queues {
            if queue.capacity() > KEPT_SOURCE_SLOTS {
                // Freed whole: shrinking it in place would leave small
                // blocks scattered where the large ones were.
                *queue = VecDeque::new();
            } else {
                queue.clear();
            }
        }
        for &idx in &self.failed {
            let idx = idx as usize;
            self.down_since[idx] = u64::MAX;
            self.down_cycles[idx] = 0;
            self.ever_down[idx] = false;
        }
        self.failed.clear();
        self.sticky.fill(0);
        self.downed_scratch.clear();
    }
}

/// The flat switch indices (`stage * n + switch`) whose bits are set in
/// a per-switch bitset laid out like `switch_bits` (`n.div_ceil(64)`
/// words per stage), in ascending order.
pub(crate) fn touched_switches(bits: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    bits.iter()
        .enumerate()
        .filter(|&(_, &word)| word != 0)
        .flat_map(move |(w, &word)| switches_of(w, word, n))
}

/// The flat switch indices of the set bits of word `w` of a per-switch
/// bitset over a network of `n` switches per stage.
fn switches_of(w: usize, mut word: u64, n: usize) -> impl Iterator<Item = usize> {
    let words = n.div_ceil(64);
    let base = (w / words) * n + (w % words) * 64;
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// Makes `v` hold `len` copies of `value`, given that every element it
/// holds already equals `value` (or, for buffers whose content is never
/// read before it is written, that any content will do). A vector that
/// must grow past its capacity is allocated anew with `vec!`, which takes
/// zeroed pages from the allocator when `value` is zero.
pub(crate) fn fit<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    if len > v.capacity() {
        *v = vec![value; len];
    } else {
        v.resize(len, value);
    }
}
