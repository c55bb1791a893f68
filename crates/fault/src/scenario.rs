//! Blockage scenario generators for experiments.
//!
//! These produce [`BlockageMap`]s for the fault-tolerance and universal-
//! rerouting experiments (DESIGN.md experiments E3 and E6): uniformly random
//! link faults, per-link failure probabilities, and kind-restricted faults
//! (the paper's SSDT scheme only evades nonstraight blockages, so comparing
//! schemes requires controlling which kinds fail).

use crate::timeline::{FaultEvent, FaultTimeline};
use crate::BlockageMap;
use iadm_rng::{Rng, SliceRandom};
use iadm_topology::{Link, LinkKind, Size};

/// Which link kinds a scenario is allowed to block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindFilter {
    /// Any link may be blocked.
    Any,
    /// Only nonstraight (`±2^i`) links may be blocked.
    NonstraightOnly,
    /// Only straight links may be blocked.
    StraightOnly,
}

impl KindFilter {
    /// Does this filter admit `kind`?
    pub fn admits(self, kind: LinkKind) -> bool {
        match self {
            KindFilter::Any => true,
            KindFilter::NonstraightOnly => kind.is_nonstraight(),
            KindFilter::StraightOnly => kind == LinkKind::Straight,
        }
    }
}

/// All links of an IADM network of `size` admitted by `filter`.
pub fn candidate_links(size: Size, filter: KindFilter) -> Vec<Link> {
    let mut links = Vec::new();
    for stage in size.stage_indices() {
        for from in size.switches() {
            for kind in LinkKind::ALL {
                if filter.admits(kind) {
                    links.push(Link::new(stage, from, kind));
                }
            }
        }
    }
    links
}

/// `candidate_links(size, filter).len()` in closed form, without building
/// the `3·N·n`-link list: every switch of every stage contributes one link
/// per admitted kind.
pub fn candidate_count(size: Size, filter: KindFilter) -> usize {
    let kinds = LinkKind::ALL.iter().filter(|&&k| filter.admits(k)).count();
    size.stages() * size.n() * kinds
}

/// Blocks exactly `count` distinct links chosen uniformly at random among
/// those admitted by `filter`.
///
/// # Panics
///
/// Panics if `count` exceeds the number of admissible links.
pub fn random_faults<R: Rng>(
    rng: &mut R,
    size: Size,
    count: usize,
    filter: KindFilter,
) -> BlockageMap {
    // Shuffles positions in `candidate_links` order rather than the
    // 24-byte links themselves: the same draws (a shuffle's draws depend
    // only on the length), the same first `count` links, a sixth of the
    // memory traffic.
    let kinds: Vec<LinkKind> = LinkKind::ALL
        .into_iter()
        .filter(|&k| filter.admits(k))
        .collect();
    let total = candidate_count(size, filter);
    assert!(
        count <= total,
        "requested {count} faults but only {total} candidate links"
    );
    let total = u32::try_from(total).expect("candidate positions fit in u32");
    let mut positions: Vec<u32> = (0..total).collect();
    positions.shuffle(rng);
    let link = |p: u32| {
        let (switch, kind) = (p as usize / kinds.len(), kinds[p as usize % kinds.len()]);
        Link::new(switch / size.n(), switch % size.n(), kind)
    };
    BlockageMap::from_links(size, positions[..count].iter().map(|&p| link(p)))
}

/// Blocks each admissible link independently with probability `p`.
///
/// # Panics
///
/// Panics unless `0.0 <= p <= 1.0`.
pub fn bernoulli_faults<R: Rng>(
    rng: &mut R,
    size: Size,
    p: f64,
    filter: KindFilter,
) -> BlockageMap {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let links = candidate_links(size, filter)
        .into_iter()
        .filter(|_| rng.gen_bool(p));
    BlockageMap::from_links(size, links)
}

/// Blocks both nonstraight output links of switch `switch` at `stage` —
/// the paper's *double nonstraight link blockage* (Theorem 3.4 scenario).
pub fn double_nonstraight(size: Size, stage: usize, switch: usize) -> BlockageMap {
    BlockageMap::from_links(
        size,
        [Link::minus(stage, switch), Link::plus(stage, switch)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_rng::StdRng;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn candidate_counts_match_topology() {
        let s = size8();
        assert_eq!(candidate_links(s, KindFilter::Any).len(), 3 * 8 * 3);
        assert_eq!(
            candidate_links(s, KindFilter::NonstraightOnly).len(),
            2 * 8 * 3
        );
        assert_eq!(candidate_links(s, KindFilter::StraightOnly).len(), 8 * 3);
    }

    #[test]
    fn candidate_count_is_the_list_length() {
        for n in [2, 4, 8, 16, 32, 64] {
            let size = Size::new(n).unwrap();
            for filter in [
                KindFilter::Any,
                KindFilter::NonstraightOnly,
                KindFilter::StraightOnly,
            ] {
                assert_eq!(
                    candidate_count(size, filter),
                    candidate_links(size, filter).len(),
                    "N={n} {filter:?}"
                );
            }
        }
    }

    #[test]
    fn random_faults_blocks_exact_count() {
        let mut rng = StdRng::seed_from_u64(7);
        for count in [0usize, 1, 5, 24] {
            let m = random_faults(&mut rng, size8(), count, KindFilter::Any);
            assert_eq!(m.blocked_count(), count);
        }
    }

    #[test]
    fn nonstraight_filter_never_blocks_straight() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = random_faults(&mut rng, size8(), 20, KindFilter::NonstraightOnly);
        assert!(m.blocked_links().iter().all(|l| l.kind.is_nonstraight()));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        let none = bernoulli_faults(&mut rng, size8(), 0.0, KindFilter::Any);
        assert!(none.is_empty());
        let all = bernoulli_faults(&mut rng, size8(), 1.0, KindFilter::Any);
        assert_eq!(all.blocked_count(), 3 * 8 * 3);
    }

    #[test]
    fn double_nonstraight_blocks_exactly_two() {
        let m = double_nonstraight(size8(), 2, 4);
        assert_eq!(m.blocked_count(), 2);
        assert!(m.is_blocked(Link::plus(2, 4)));
        assert!(m.is_blocked(Link::minus(2, 4)));
        assert!(m.is_free(Link::straight(2, 4)));
    }

    #[test]
    fn random_faults_equal_the_shuffled_link_list() {
        // The reference: shuffle the candidate links themselves.
        for n in [2usize, 8, 64] {
            let size = Size::new(n).unwrap();
            for filter in [
                KindFilter::Any,
                KindFilter::NonstraightOnly,
                KindFilter::StraightOnly,
            ] {
                let total = candidate_count(size, filter);
                for seed in 0..20u64 {
                    let count = (seed as usize * 7) % (total + 1);
                    let mut links = candidate_links(size, filter);
                    let mut rng = StdRng::seed_from_u64(seed);
                    links.shuffle(&mut rng);
                    let reference = BlockageMap::from_links(size, links.into_iter().take(count));
                    let mut same = StdRng::seed_from_u64(seed);
                    let map = random_faults(&mut same, size, count, filter);
                    assert_eq!(map, reference, "N={n} {filter:?} seed {seed}");
                    assert_eq!(same, rng, "N={n} {filter:?} seed {seed}: draws differ");
                }
            }
        }
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_faults(&mut StdRng::seed_from_u64(42), size8(), 10, KindFilter::Any);
        let b = random_faults(&mut StdRng::seed_from_u64(42), size8(), 10, KindFilter::Any);
        assert_eq!(a, b);
    }
}

/// Blocks every nonstraight link of the given `stage` — a stage-wide burst
/// (e.g. a shared driver failure), the worst case for SSDT since every
/// switch of the stage loses both spares at once.
pub fn stage_nonstraight_burst(size: Size, stage: usize) -> BlockageMap {
    assert!(stage < size.stages(), "stage {stage} out of range");
    BlockageMap::from_links(
        size,
        size.switches()
            .flat_map(|j| [Link::minus(stage, j), Link::plus(stage, j)]),
    )
}

/// Blocks all three output links of a contiguous band of switches at one
/// stage — a localized burst (e.g. a failed board holding several
/// switches).
pub fn switch_band_burst(size: Size, stage: usize, first: usize, count: usize) -> BlockageMap {
    assert!(stage < size.stages(), "stage {stage} out of range");
    BlockageMap::from_links(
        size,
        (0..count).flat_map(move |off| {
            let j = size.add(first, off);
            LinkKind::ALL.map(move |kind| Link::new(stage, j, kind))
        }),
    )
}

/// A declarative fault scenario: a *recipe* for a [`BlockageMap`] that can
/// be named in a sweep spec, expanded per campaign run, and labeled in
/// result tables. Deterministic scenarios ignore the seed; randomized ones
/// (`RandomLinks`, `Bernoulli`) realize from the seed the campaign engine
/// derives for the run, so the same spec + campaign seed always yields the
/// same faults regardless of worker scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// No faults — the healthy-network baseline.
    None,
    /// One specific faulty link.
    SingleLink(Link),
    /// `count` distinct uniformly random links admitted by `filter`.
    RandomLinks {
        /// Number of faulty links.
        count: usize,
        /// Which link kinds may fail.
        filter: KindFilter,
    },
    /// Each admissible link fails independently with probability `p`.
    Bernoulli {
        /// Per-link failure probability.
        p: f64,
        /// Which link kinds may fail.
        filter: KindFilter,
    },
    /// Both nonstraight output links of one switch (Theorem 3.4 scenario).
    DoubleNonstraight {
        /// Stage of the affected switch.
        stage: usize,
        /// Affected switch.
        switch: usize,
    },
    /// Every nonstraight link of one stage (shared-driver burst).
    StageNonstraightBurst {
        /// Affected stage.
        stage: usize,
    },
    /// All outputs of a contiguous switch band at one stage (board burst).
    SwitchBandBurst {
        /// Affected stage.
        stage: usize,
        /// First switch of the band.
        first: usize,
        /// Band width in switches (wraps modulo N).
        count: usize,
    },
    /// Transient churn: every link alternates exponential up/down holding
    /// times with the given means (see [`FaultTimeline::mtbf`]). The
    /// *static* realization is the fault-free map — all failures arrive
    /// mid-run via [`ScenarioSpec::timeline`].
    Mtbf {
        /// Mean cycles between failures (per link, while up).
        mtbf: u64,
        /// Mean cycles to repair (per link, while down).
        mttr: u64,
    },
    /// Deterministic burst outage: `links` uniformly random links (any
    /// kind, chosen from the run's timeline seed) all fail at cycle
    /// `down` and are all repaired at cycle `up`, with no churn before
    /// or after — the repair-recovery scenario. MTTR sweeps hold the
    /// burst fixed and vary `up - down`. Like `Mtbf`, the *static*
    /// realization is the fault-free map; the burst arrives mid-run via
    /// [`ScenarioSpec::timeline`].
    Outage {
        /// Number of links in the burst.
        links: usize,
        /// Cycle at which every burst link fails.
        down: u64,
        /// Cycle at which every burst link is repaired.
        up: u64,
    },
}

impl ScenarioSpec {
    /// A short stable label for tables and JSON artifacts.
    pub fn label(&self) -> String {
        fn filter_tag(f: KindFilter) -> &'static str {
            match f {
                KindFilter::Any => "any",
                KindFilter::NonstraightOnly => "nonstraight",
                KindFilter::StraightOnly => "straight",
            }
        }
        match self {
            ScenarioSpec::None => "none".into(),
            ScenarioSpec::SingleLink(link) => format!("link:{link}"),
            ScenarioSpec::RandomLinks { count, filter } => {
                format!("rand:{count}:{}", filter_tag(*filter))
            }
            ScenarioSpec::Bernoulli { p, filter } => {
                format!("bernoulli:{p}:{}", filter_tag(*filter))
            }
            ScenarioSpec::DoubleNonstraight { stage, switch } => {
                format!("double:S{stage}:{switch}")
            }
            ScenarioSpec::StageNonstraightBurst { stage } => format!("stageburst:S{stage}"),
            ScenarioSpec::SwitchBandBurst {
                stage,
                first,
                count,
            } => format!("band:S{stage}:{first}x{count}"),
            ScenarioSpec::Mtbf { mtbf, mttr } => format!("mtbf:{mtbf}:{mttr}"),
            ScenarioSpec::Outage { links, down, up } => format!("outage:{links}:{down}:{up}"),
        }
    }

    /// Does [`ScenarioSpec::realize`] consume the seed? Randomized
    /// recipes (`RandomLinks`, `Bernoulli`) realize a different map per
    /// seed; every other recipe — including `Mtbf`, whose *static* map is
    /// always the healthy network — realizes identically for any seed.
    /// Campaign engines use this to decide whether runs can share one
    /// realized `BlockageMap` + route table: seed-independent recipes
    /// share per `(size, label)` key, seed-dependent ones cannot.
    pub fn realization_is_seeded(&self) -> bool {
        matches!(
            self,
            ScenarioSpec::RandomLinks { .. } | ScenarioSpec::Bernoulli { .. }
        )
    }

    /// Does [`ScenarioSpec::realize`] return the healthy map
    /// (`BlockageMap::new(size)`) for every seed? True of `None` and of
    /// the transient recipes (`Mtbf`, `Outage`), whose faults all arrive
    /// mid-run through [`ScenarioSpec::timeline`]. Campaign engines use
    /// this to share one healthy map + route table per size across all
    /// of them.
    pub fn realizes_healthy(&self) -> bool {
        matches!(
            self,
            ScenarioSpec::None | ScenarioSpec::Mtbf { .. } | ScenarioSpec::Outage { .. }
        )
    }

    /// Expands the recipe into a concrete [`BlockageMap`] for `size`.
    /// `seed` feeds only the randomized variants.
    ///
    /// # Panics
    ///
    /// Panics if the recipe is out of range for `size` (same contract as
    /// the underlying generators).
    pub fn realize(&self, size: Size, seed: u64) -> BlockageMap {
        use iadm_rng::StdRng;
        match self {
            ScenarioSpec::None => BlockageMap::new(size),
            ScenarioSpec::SingleLink(link) => BlockageMap::from_links(size, [*link]),
            ScenarioSpec::RandomLinks { count, filter } => {
                random_faults(&mut StdRng::seed_from_u64(seed), size, *count, *filter)
            }
            ScenarioSpec::Bernoulli { p, filter } => {
                bernoulli_faults(&mut StdRng::seed_from_u64(seed), size, *p, *filter)
            }
            ScenarioSpec::DoubleNonstraight { stage, switch } => {
                double_nonstraight(size, *stage, *switch)
            }
            ScenarioSpec::StageNonstraightBurst { stage } => stage_nonstraight_burst(size, *stage),
            ScenarioSpec::SwitchBandBurst {
                stage,
                first,
                count,
            } => switch_band_burst(size, *stage, *first, *count),
            // Transient scenarios start from the healthy network; their
            // faults arrive via [`ScenarioSpec::timeline`].
            ScenarioSpec::Mtbf { .. } | ScenarioSpec::Outage { .. } => BlockageMap::new(size),
        }
    }

    /// Expands the recipe's *dynamic* part: the mid-run fail/repair
    /// schedule over `horizon` cycles. Static scenarios return the empty
    /// timeline, so simulators can unconditionally consume it.
    pub fn timeline(&self, size: Size, seed: u64, horizon: u64) -> FaultTimeline {
        match self {
            ScenarioSpec::Mtbf { mtbf, mttr } => {
                FaultTimeline::mtbf(size, seed, *mtbf, *mttr, horizon)
            }
            ScenarioSpec::Outage { links, down, up } => {
                use iadm_rng::StdRng;
                let burst = random_faults(
                    &mut StdRng::seed_from_u64(seed),
                    size,
                    *links,
                    KindFilter::Any,
                );
                let events = burst.blocked_links().into_iter().flat_map(|link| {
                    [
                        FaultEvent {
                            cycle: *down,
                            link,
                            up: false,
                        },
                        FaultEvent {
                            cycle: *up,
                            link,
                            up: true,
                        },
                    ]
                });
                FaultTimeline::from_events(size, events)
            }
            _ => FaultTimeline::empty(size),
        }
    }
}

/// Every single-link fault scenario admitted by `filter` — the exhaustive
/// axis campaigns sweep to locate the worst-case link (one
/// [`ScenarioSpec::SingleLink`] per candidate link, in stage/switch/kind
/// order).
pub fn single_link_scenarios(size: Size, filter: KindFilter) -> Vec<ScenarioSpec> {
    candidate_links(size, filter)
        .into_iter()
        .map(ScenarioSpec::SingleLink)
        .collect()
}

#[cfg(test)]
mod spec_tests {
    use super::*;
    use iadm_rng::StdRng;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let specs = [
            ScenarioSpec::None,
            ScenarioSpec::SingleLink(Link::plus(1, 2)),
            ScenarioSpec::RandomLinks {
                count: 3,
                filter: KindFilter::Any,
            },
            ScenarioSpec::Bernoulli {
                p: 0.1,
                filter: KindFilter::NonstraightOnly,
            },
            ScenarioSpec::DoubleNonstraight {
                stage: 1,
                switch: 4,
            },
            ScenarioSpec::StageNonstraightBurst { stage: 2 },
            ScenarioSpec::SwitchBandBurst {
                stage: 0,
                first: 6,
                count: 3,
            },
            ScenarioSpec::Mtbf {
                mtbf: 1000,
                mttr: 200,
            },
            ScenarioSpec::Outage {
                links: 4,
                down: 100,
                up: 300,
            },
        ];
        let labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels collide: {labels:?}");
        assert_eq!(labels[0], "none");
    }

    #[test]
    fn realize_matches_the_underlying_generators() {
        let size = size8();
        assert!(ScenarioSpec::None.realize(size, 1).is_empty());
        assert_eq!(
            ScenarioSpec::DoubleNonstraight {
                stage: 2,
                switch: 4
            }
            .realize(size, 1),
            double_nonstraight(size, 2, 4)
        );
        assert_eq!(
            ScenarioSpec::RandomLinks {
                count: 5,
                filter: KindFilter::Any
            }
            .realize(size, 99),
            random_faults(&mut StdRng::seed_from_u64(99), size, 5, KindFilter::Any)
        );
        // Deterministic per seed, different across seeds.
        let spec = ScenarioSpec::RandomLinks {
            count: 5,
            filter: KindFilter::Any,
        };
        assert_eq!(spec.realize(size, 7), spec.realize(size, 7));
        assert_ne!(spec.realize(size, 7), spec.realize(size, 8));
    }

    #[test]
    fn mtbf_realizes_healthy_but_times_out_links() {
        let size = size8();
        let spec = ScenarioSpec::Mtbf {
            mtbf: 1000,
            mttr: 200,
        };
        assert_eq!(spec.label(), "mtbf:1000:200");
        assert!(spec.realize(size, 5).is_empty(), "static part is healthy");
        let tl = spec.timeline(size, 5, 4000);
        assert!(!tl.is_empty(), "4000 cycles at MTBF 1000 must churn");
        assert_eq!(tl, spec.timeline(size, 5, 4000), "deterministic");
        // Static scenarios have no dynamic part.
        assert!(ScenarioSpec::None.timeline(size, 5, 4000).is_empty());
        assert!(ScenarioSpec::StageNonstraightBurst { stage: 1 }
            .timeline(size, 5, 4000)
            .is_empty());
    }

    #[test]
    fn outage_realizes_healthy_and_schedules_one_burst_and_one_repair() {
        let size = size8();
        let spec = ScenarioSpec::Outage {
            links: 5,
            down: 100,
            up: 300,
        };
        assert_eq!(spec.label(), "outage:5:100:300");
        assert!(spec.realize(size, 9).is_empty(), "static part is healthy");
        let tl = spec.timeline(size, 9, 4000);
        assert_eq!(tl, spec.timeline(size, 9, 4000), "deterministic");
        let events = tl.events();
        assert_eq!(events.len(), 2 * 5, "one failure + one repair per link");
        let downs: Vec<_> = events.iter().filter(|e| !e.up).collect();
        let ups: Vec<_> = events.iter().filter(|e| e.up).collect();
        assert_eq!(downs.len(), 5);
        assert!(downs.iter().all(|e| e.cycle == 100));
        assert!(ups.iter().all(|e| e.cycle == 300));
        // Every failed link is repaired, and the burst links are distinct.
        let mut failed: Vec<_> = downs.iter().map(|e| e.link).collect();
        let mut repaired: Vec<_> = ups.iter().map(|e| e.link).collect();
        failed.sort_by_key(|l| l.flat_index(size));
        repaired.sort_by_key(|l| l.flat_index(size));
        failed.dedup();
        assert_eq!(failed.len(), 5);
        assert_eq!(failed, repaired);
        // A different timeline seed picks a different burst.
        assert_ne!(tl, spec.timeline(size, 10, 4000));
    }

    #[test]
    fn seed_independence_flag_matches_realize_behavior() {
        // The sharing contract: every recipe reporting an unseeded
        // realization must produce identical maps under wildly different
        // seeds (so a campaign may realize it once and share the result),
        // and the seeded ones must actually use the seed.
        let size = size8();
        let unseeded = [
            ScenarioSpec::None,
            ScenarioSpec::SingleLink(Link::plus(1, 2)),
            ScenarioSpec::DoubleNonstraight {
                stage: 1,
                switch: 4,
            },
            ScenarioSpec::StageNonstraightBurst { stage: 2 },
            ScenarioSpec::SwitchBandBurst {
                stage: 0,
                first: 6,
                count: 3,
            },
            ScenarioSpec::Mtbf { mtbf: 50, mttr: 20 },
            ScenarioSpec::Outage {
                links: 4,
                down: 10,
                up: 50,
            },
        ];
        for spec in &unseeded {
            assert!(!spec.realization_is_seeded(), "{}", spec.label());
            assert_eq!(spec.realize(size, 1), spec.realize(size, 0xDEAD_BEEF));
        }
        let seeded = [
            ScenarioSpec::RandomLinks {
                count: 4,
                filter: KindFilter::Any,
            },
            ScenarioSpec::Bernoulli {
                p: 0.5,
                filter: KindFilter::Any,
            },
        ];
        for spec in &seeded {
            assert!(spec.realization_is_seeded(), "{}", spec.label());
            assert_ne!(spec.realize(size, 1), spec.realize(size, 0xDEAD_BEEF));
        }
    }

    #[test]
    fn single_link_census_is_exhaustive() {
        let all = single_link_scenarios(size8(), KindFilter::Any);
        assert_eq!(all.len(), 3 * 8 * 3);
        let straight = single_link_scenarios(size8(), KindFilter::StraightOnly);
        assert_eq!(straight.len(), 8 * 3);
        for spec in &straight {
            let map = spec.realize(size8(), 0);
            assert_eq!(map.blocked_count(), 1);
        }
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;

    #[test]
    fn stage_burst_blocks_exactly_the_nonstraight_links() {
        let size = Size::new(8).unwrap();
        let m = stage_nonstraight_burst(size, 1);
        assert_eq!(m.blocked_count(), 2 * 8);
        for j in size.switches() {
            assert!(m.is_blocked(Link::plus(1, j)));
            assert!(m.is_blocked(Link::minus(1, j)));
            assert!(m.is_free(Link::straight(1, j)));
        }
    }

    #[test]
    fn stage_burst_reduces_iadm_to_a_straight_stage() {
        // With a full nonstraight burst at stage i, only pairs whose
        // distance has bit i compatible with straight-only crossing remain
        // routable; in particular every (s, s) pair still works.
        let size = Size::new(8).unwrap();
        let m = stage_nonstraight_burst(size, 0);
        // Distance with odd parity requires a nonstraight at stage 0:
        // all such pairs are cut.
        use iadm_topology::Path;
        for s in size.switches() {
            let p = Path::all_straight(size, s);
            assert!(m.path_is_free(&p));
        }
    }

    #[test]
    fn band_burst_wraps_and_counts() {
        let size = Size::new(8).unwrap();
        let m = switch_band_burst(size, 2, 6, 3); // switches 6, 7, 0
        assert_eq!(m.blocked_count(), 9);
        for j in [6usize, 7, 0] {
            for kind in LinkKind::ALL {
                assert!(m.is_blocked(Link::new(2, j, kind)));
            }
        }
        assert!(m.is_free(Link::straight(2, 1)));
    }
}
