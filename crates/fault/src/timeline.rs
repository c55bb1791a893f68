//! Transient-fault schedules: deterministic per-link fail/repair event
//! timelines the simulator applies *between cycles*.
//!
//! The paper's blockage model is static — the sender's global map and the
//! rerouting theorems (3.2–3.4) are all stated against a fixed set of
//! blocked links. A packet-switching deployment, which is exactly the
//! environment Section 4 motivates, sees links *fail and come back*:
//! transceivers reset, boards are reseated, cables are replaced. A
//! [`FaultTimeline`] captures that regime while keeping every run
//! byte-reproducible: it is a plain sorted list of [`FaultEvent`]s fixed
//! before the simulation starts, generated either from an explicit event
//! list or from per-link MTBF/MTTR holding times drawn from the
//! workspace's seeded splitmix64/xoshiro stream discipline
//! ([`FaultTimeline::mtbf`]).
//!
//! The timeline itself is pure data; the simulator owns the application
//! semantics (patching its routing LUT, versioning sender tag caches,
//! stalling buffers on downed links — see `iadm-sim`).

use crate::BlockageMap;
use iadm_rng::{mix, Rng, StdRng};
use iadm_topology::{Link, LinkKind, Size};

/// One scheduled link-state transition: at the start of `cycle`, `link`
/// goes down (`up == false`) or comes back (`up == true`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle *before* which the transition takes effect (an event at
    /// cycle `c` is visible to every routing decision of cycle `c`).
    pub cycle: u64,
    /// The affected link.
    pub link: Link,
    /// `false` = the link fails; `true` = the link is repaired.
    pub up: bool,
}

impl FaultEvent {
    /// Is this a failure (the link goes down)? In wormhole mode a failure
    /// of a reserved link additionally tears down every worm holding one
    /// of its lanes.
    pub fn is_failure(&self) -> bool {
        !self.up
    }

    /// Is this a repair (the link comes back up)?
    pub fn is_repair(&self) -> bool {
        self.up
    }
}

/// A deterministic schedule of link fail/repair events, sorted by
/// `(cycle, link, repair-after-fail)` so application order never depends
/// on construction order. The canonical sort also makes two timelines
/// comparable structurally.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    size: Size,
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// The empty timeline: no mid-run fault dynamics. A simulation run
    /// with an empty timeline is byte-identical to the static-blockage
    /// path (enforced by `crates/sim/tests/parity.rs`).
    pub fn empty(size: Size) -> Self {
        FaultTimeline {
            size,
            events: Vec::new(),
        }
    }

    /// A timeline from an explicit event list. Events are canonically
    /// sorted; same-cycle events on one link apply fail-before-repair so
    /// a `(fail, repair)` pair at the same cycle nets to "up".
    ///
    /// # Panics
    ///
    /// Panics if any event's link is out of range for `size`.
    pub fn from_events<I: IntoIterator<Item = FaultEvent>>(size: Size, events: I) -> Self {
        let mut events: Vec<FaultEvent> = events.into_iter().collect();
        for event in &events {
            assert!(
                event.link.stage < size.stages() && event.link.from < size.n(),
                "event link {} out of range for N={}",
                event.link,
                size.n()
            );
        }
        // The key determines the event (a flat index names one link), so
        // an unstable sort gives the stable order without the stable
        // sort's buffer, which is as large as the list here.
        events.sort_unstable_by_key(|e| (e.cycle, e.link.flat_index(size), e.up));
        FaultTimeline { size, events }
    }

    /// A churn timeline: every link alternates up/down holding times drawn
    /// from exponential distributions with means `mtbf` (up) and `mttr`
    /// (down), truncated at `horizon` cycles. Each link's schedule comes
    /// from its own generator seeded `mix(seed, flat_index)` — the
    /// workspace's per-stream splitmix64 discipline — so the timeline is a
    /// pure function of `(size, seed, mtbf, mttr, horizon)` and adding or
    /// removing links never perturbs another link's draws.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf` or `mttr` is zero.
    ///
    /// Most links at a short horizon never fail inside it. Their first
    /// up-time is decided by comparing the stream's first raw draw with
    /// a precomputed cutoff, without building the generator or taking
    /// a logarithm; only the links below the cutoff replay their full
    /// schedule. The events are exactly those of drawing every link's
    /// schedule in full.
    pub fn mtbf(size: Size, seed: u64, mtbf: u64, mttr: u64, horizon: u64) -> Self {
        assert!(mtbf > 0, "mean time between failures must be positive");
        assert!(mttr > 0, "mean time to repair must be positive");
        let cutoff = first_failure_cutoff(mtbf, horizon);
        let mut events = Vec::new();
        for index in 0..Link::slot_count(size) {
            let stream = mix(seed, index as u64);
            if StdRng::first_u64(stream) >> 11 >= cutoff {
                continue;
            }
            let switch = index / 3;
            let link = Link::new(
                switch / size.n(),
                switch % size.n(),
                LinkKind::from_index(index % 3),
            );
            let mut rng = StdRng::seed_from_u64(stream);
            let mut t = holding_time(&mut rng, mtbf);
            while t < horizon {
                events.push(FaultEvent {
                    cycle: t,
                    link,
                    up: false,
                });
                let back = t + holding_time(&mut rng, mttr);
                if back >= horizon {
                    // Stays down past the end of the run.
                    break;
                }
                events.push(FaultEvent {
                    cycle: back,
                    link,
                    up: true,
                });
                t = back + holding_time(&mut rng, mtbf);
            }
        }
        Self::from_events(size, events)
    }

    /// The network size this timeline is for.
    pub fn size(&self) -> Size {
        self.size
    }

    /// The canonical (sorted) event list.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the timeline event-free (i.e. the static-fault regime)?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the whole timeline onto `map` (final state, ignoring
    /// cycles) — a cheap oracle for tests: the simulator's incremental
    /// application must land on the same map.
    pub fn final_map(&self, initial: &BlockageMap) -> BlockageMap {
        let mut map = initial.clone();
        for event in &self.events {
            if event.up {
                map.unblock(event.link);
            } else {
                map.block(event.link);
            }
        }
        map
    }
}

/// One exponential holding time with the given `mean`, floored to a full
/// cycle so every state persists at least one cycle.
fn holding_time<R: Rng>(rng: &mut R, mean: u64) -> u64 {
    holding_time_of(rng.next_u64() >> 11, mean)
}

/// [`holding_time`] of the 53-bit draw `raw`, the value
/// [`Rng::gen_f64`] scales into `[0, 1)`.
fn holding_time_of(raw: u64, mean: u64) -> u64 {
    // u is in [0, 1); 1 - u is in (0, 1] so ln is finite and <= 0.
    let u = raw as f64 * (1.0 / (1u64 << 53) as f64);
    1 + (-(mean as f64) * (1.0 - u).ln()) as u64
}

/// How far above the bisected boundary [`first_failure_cutoff`] still
/// sends draws through the exact [`holding_time`]: a guard against `ln`
/// not being monotone to the last bit near the boundary. Draws this
/// close to it are a `2^-37` share of all draws.
const CUTOFF_MARGIN: u64 = 1 << 16;

/// A bound on a link stream's first 53-bit draw: a draw at or above it
/// gives a first up-time ([`holding_time`] with mean `mtbf`) of at least
/// `horizon`, so the link never fails inside the horizon. It is the
/// smallest draw whose holding time reaches `horizon`, found by bisection
/// (the holding time grows with the draw), plus [`CUTOFF_MARGIN`].
fn first_failure_cutoff(mtbf: u64, horizon: u64) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holding_time_of(mid, mtbf) >= horizon {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo + CUTOFF_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn empty_timeline_has_no_events() {
        let tl = FaultTimeline::empty(size8());
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert_eq!(tl.size(), size8());
    }

    #[test]
    fn from_events_sorts_canonically() {
        let link_a = Link::plus(0, 1);
        let link_b = Link::minus(2, 5);
        let tl = FaultTimeline::from_events(
            size8(),
            [
                FaultEvent {
                    cycle: 9,
                    link: link_b,
                    up: true,
                },
                FaultEvent {
                    cycle: 3,
                    link: link_a,
                    up: false,
                },
                // Same cycle as the repair below: fail sorts first.
                FaultEvent {
                    cycle: 9,
                    link: link_b,
                    up: false,
                },
            ],
        );
        let cycles: Vec<(u64, bool)> = tl.events().iter().map(|e| (e.cycle, e.up)).collect();
        assert_eq!(cycles, vec![(3, false), (9, false), (9, true)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_events_rejects_out_of_range_links() {
        let _ = FaultTimeline::from_events(
            size8(),
            [FaultEvent {
                cycle: 0,
                link: Link::plus(0, 99),
                up: false,
            }],
        );
    }

    #[test]
    fn mtbf_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = FaultTimeline::mtbf(size8(), 7, 100, 30, 1000);
        let b = FaultTimeline::mtbf(size8(), 7, 100, 30, 1000);
        let c = FaultTimeline::mtbf(size8(), 8, 100, 30, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty(), "1000 cycles at MTBF 100 must produce churn");
    }

    #[test]
    fn mtbf_events_respect_the_horizon_and_alternate_per_link() {
        let tl = FaultTimeline::mtbf(size8(), 42, 50, 20, 600);
        assert!(tl.events().iter().all(|e| e.cycle < 600));
        // Per link the first event is a failure and states alternate.
        for stage in size8().stage_indices() {
            for from in size8().switches() {
                for kind in LinkKind::ALL {
                    let link = Link::new(stage, from, kind);
                    let mut expect_up = false;
                    for e in tl.events().iter().filter(|e| e.link == link) {
                        assert_eq!(e.up, expect_up, "link {link} out of phase");
                        expect_up = !expect_up;
                    }
                }
            }
        }
    }

    #[test]
    fn mtbf_intensity_scales_event_count() {
        let gentle = FaultTimeline::mtbf(size8(), 3, 500, 100, 2000);
        let harsh = FaultTimeline::mtbf(size8(), 3, 50, 10, 2000);
        assert!(
            harsh.len() > gentle.len(),
            "harsh churn ({}) must out-event gentle churn ({})",
            harsh.len(),
            gentle.len()
        );
    }

    /// `holding_time` as it was before the raw-draw form.
    fn holding_time_reference<R: Rng>(rng: &mut R, mean: u64) -> u64 {
        let u = rng.gen_f64();
        1 + (-(mean as f64) * (1.0 - u).ln()) as u64
    }

    /// A generator that yields one fixed word.
    struct Fixed(u64);

    impl iadm_rng::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// `FaultTimeline::mtbf` as it was before the first-draw cutoff:
    /// every link's generator is built and its first holding time taken
    /// with a logarithm.
    fn mtbf_reference(size: Size, seed: u64, mtbf: u64, mttr: u64, horizon: u64) -> FaultTimeline {
        let mut events = Vec::new();
        for stage in size.stage_indices() {
            for from in size.switches() {
                for kind in LinkKind::ALL {
                    let link = Link::new(stage, from, kind);
                    let stream = link.flat_index(size) as u64;
                    let mut rng = StdRng::seed_from_u64(mix(seed, stream));
                    let mut t = holding_time_reference(&mut rng, mtbf);
                    while t < horizon {
                        events.push(FaultEvent {
                            cycle: t,
                            link,
                            up: false,
                        });
                        let back = t + holding_time_reference(&mut rng, mttr);
                        if back >= horizon {
                            break;
                        }
                        events.push(FaultEvent {
                            cycle: back,
                            link,
                            up: true,
                        });
                        t = back + holding_time_reference(&mut rng, mtbf);
                    }
                }
            }
        }
        FaultTimeline::from_events(size, events)
    }

    iadm_check::check! {
        /// The cutoff timeline equals the draw-everything reference.
        fn mtbf_equals_the_full_draw_reference(g; cases = 24) {
            let size = Size::new(1 << g.usize_in(1..=8)).expect("power of two");
            let seed = g.u64_any();
            let top = if g.bool_with(0.5) { 64 } else { 100_000 };
            let mtbf = g.usize_in(1..=top) as u64;
            let mttr = g.usize_in(1..=500) as u64;
            let horizon = [1, 2, 64, 8000][g.usize_in(0..=3)];
            iadm_check::check_assert_eq!(
                FaultTimeline::mtbf(size, seed, mtbf, mttr, horizon),
                mtbf_reference(size, seed, mtbf, mttr, horizon)
            );
        }
    }

    iadm_check::check! {
        /// Every draw within 2^16 of the bisected boundary classifies
        /// exactly as its holding time does: below the boundary the link
        /// fails inside the horizon, at or above it it does not.
        fn the_cutoff_agrees_with_the_holding_time_near_the_boundary(g; cases = 32) {
            let top = if g.bool_with(0.5) { 64 } else { 1_000_000 };
            let mtbf = g.usize_in(1..=top) as u64;
            let top = if g.bool_with(0.5) { 100 } else { 1_000_000 };
            let horizon = g.usize_in(1..=top) as u64;
            let boundary = first_failure_cutoff(mtbf, horizon) - CUTOFF_MARGIN;
            let lo = boundary.saturating_sub(1 << 16);
            let hi = (boundary + (1 << 16)).min((1 << 53) - 1);
            for raw in lo..=hi {
                iadm_check::check_assert_eq!(
                    holding_time_reference(&mut Fixed(raw << 11), mtbf) < horizon,
                    raw < boundary,
                    "draw {raw}, boundary {boundary}, mtbf {mtbf}, horizon {horizon}"
                );
            }
        }
    }

    #[test]
    fn final_map_replays_the_event_list() {
        let size = size8();
        let tl = FaultTimeline::from_events(
            size,
            [
                FaultEvent {
                    cycle: 1,
                    link: Link::plus(0, 1),
                    up: false,
                },
                FaultEvent {
                    cycle: 2,
                    link: Link::minus(1, 3),
                    up: false,
                },
                FaultEvent {
                    cycle: 5,
                    link: Link::plus(0, 1),
                    up: true,
                },
            ],
        );
        let end = tl.final_map(&BlockageMap::new(size));
        assert!(end.is_free(Link::plus(0, 1)), "failed then repaired");
        assert!(end.is_blocked(Link::minus(1, 3)), "still down at the end");
        assert_eq!(end.blocked_count(), 1);
    }
}
