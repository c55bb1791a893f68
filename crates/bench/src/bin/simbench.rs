//! Simulator throughput benchmark and perf-trajectory gate.
//!
//! Measures the packet-switching engine's hot path — simulated cycles per
//! second and delivered packets per second — at N ∈ {64, 256, 1024} under
//! every routing policy, fault-free, fixed seed. Each configuration is
//! timed three times and the best run is reported (the engine is
//! deterministic per seed, so `delivered` is identical across repeats and
//! only wall time varies).
//!
//! A second section times the low-load ladder — low offered load, N up
//! to 8192 — where per-cycle overhead on a mostly idle fabric is the
//! whole cost. Its cases keep their historical `FixedC/lowload/sync`
//! label so the (n, policy) gate key continues their trajectory.
//!
//! A third section (`campbench`) measures campaign throughput — **runs
//! per second** over a 1000-run grid that shares one (size, scenario)
//! pair, the fleet-campaign shape where per-run setup dominates. The
//! `campbench/fresh` case rebuilds the blockage map and route table
//! every run (the pre-sharing executor); `campbench/shared` hands every
//! run one `Arc<BlockageMap>` + `Arc<RouteLut>` pair the way
//! `iadm-sweep`'s executor does. For these two cases `packets_per_sec`
//! carries runs/sec, so the same (n, policy) gate machinery tracks
//! campaign throughput PR over PR.
//!
//! Usage:
//!   simbench                      print the report JSON to stdout
//!   simbench --out PATH           also write it to PATH
//!   simbench --check BASELINE     compare against a previous report and
//!                                 fail when any configuration regressed
//!                                 by more than the tolerance
//!   simbench --history PATH       compare against the *best* rate each
//!                                 (n, policy) ever posted to the given
//!                                 JSONL history (one report per line),
//!                                 printing a one-line delta per case —
//!                                 the PR-over-PR trajectory gate
//!   simbench --tolerance 0.25     regression tolerance (default 0.20)
//!
//! The checked-in `BENCH_sim.json` at the repo root is the recorded perf
//! trajectory; `scripts/bench_gate.sh` wires both checks into the smoke
//! pipeline and appends each fresh report to the history, so the bar
//! ratchets up as PRs land instead of only ever being "within tolerance
//! of last time".

use iadm_bench::json::{assert_round_trip, parse, Json};
use iadm_fault::scenario::ScenarioSpec;
use iadm_sim::{EngineKind, RouteLut, RoutingPolicy, SimConfig, Simulator, TrafficPattern};
use iadm_topology::Size;
use std::sync::Arc;
use std::time::Instant;

/// `(N, simulated cycles)`: cycle counts scaled down with N so every
/// configuration runs in comparable wall time on a small machine.
const SIZES: [(usize, usize); 3] = [(64, 3000), (256, 1500), (1024, 400)];

const POLICIES: [(RoutingPolicy, &str); 5] = [
    (RoutingPolicy::FixedC, "FixedC"),
    (RoutingPolicy::SsdtBalance, "SsdtBalance"),
    (RoutingPolicy::RandomSign, "RandomSign"),
    (RoutingPolicy::TsdtSender, "TsdtSender"),
    // d = 2 samples the full pivot-theory candidate set, so this case
    // prices the occupancy comparison on top of the SSDT decision path.
    (
        RoutingPolicy::DChoice {
            d: 2,
            sticky: false,
        },
        "DChoice2",
    ),
];

const OFFERED_LOAD: f64 = 0.3;
const SEED: u64 = 42;
const REPS: usize = 3;

/// The multi-lane wormhole case (`wormhole:4:4`): 4-flit worms over
/// 4-lane links, priced at every main size. This is the reservation
/// pipeline's hot path — lane grant scans, per-worm flit advances, and
/// teardown-free steady pipelining — none of which the store-and-forward
/// cases touch, so it gets its own gate trajectory under the
/// `SsdtBalance/wormhole:4:4` label.
const WORMHOLE_CASE: (u32, u32, &str) = (4, 4, "SsdtBalance/wormhole:4:4");

/// `(N, simulated cycles)` for the low-load ladder. The cycle counts
/// shrink with N like the main section's; the offered load is chosen per
/// size so every configuration sees the same absolute injection rate
/// (`LOWLOAD_RATE` packets per cycle across the whole fabric) — a mostly
/// idle regime, held constant as N grows.
const LOWLOAD_SIZES: [(usize, usize); 4] = [(64, 20000), (256, 8000), (1024, 2000), (8192, 500)];
const LOWLOAD_RATE: f64 = 0.8;

/// Campaign-engine section (`campbench`): `(N, cycles per run, runs)`
/// for a many-run shared-topology grid — the fleet-campaign shape where
/// per-run setup (scenario realization + route-table build) is a large
/// share of each run's cost. The grid holds one `(size, scenario)` pair
/// and varies only seed and load, exactly the case the campaign
/// executor's shared immutable bases exist for.
const CAMPAIGN: (usize, usize, usize) = (1024, 12, 1000);

/// `campbench/fresh` rebuilds the blockage map and route table per run
/// (the pre-sharing executor); `campbench/shared` clones one
/// `Arc<BlockageMap>` + `Arc<RouteLut>` pair per run. For these two
/// cases `packets_per_sec` carries **runs per second** (the campaign
/// throughput the gate tracks); `delivered` still counts packets and
/// must be identical between the two — sharing may never change
/// statistics.
const CAMPAIGN_VARIANTS: [(bool, &str); 2] =
    [(false, "campbench/fresh"), (true, "campbench/shared")];

fn bench_campaign(share_bases: bool, name: &'static str) -> Case {
    let (n, cycles, runs) = CAMPAIGN;
    let size = Size::new(n).expect("benchmark sizes are powers of two");
    let scenario = ScenarioSpec::SwitchBandBurst {
        stage: 0,
        first: 0,
        count: 64,
    };
    let mut delivered = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let shared = share_bases.then(|| {
            let blockages = Arc::new(scenario.realize(size, SEED));
            let lut = Arc::new(RouteLut::new(size, &blockages));
            (blockages, lut)
        });
        delivered = 0;
        for run in 0..runs {
            let config = SimConfig {
                size,
                queue_capacity: 4,
                cycles,
                warmup: cycles / 5,
                // Low absolute rate, varied per run like a load axis
                // would.
                offered_load: (0.5 + (run % 8) as f64 * 0.1) / n as f64,
                seed: iadm_rng::mix(SEED, run as u64),
                engine: EngineKind::Synchronous,
            };
            let timeline = scenario.timeline(size, config.seed, cycles as u64);
            let sim = match &shared {
                Some((blockages, lut)) => Simulator::with_shared_lut(
                    config,
                    RoutingPolicy::SsdtBalance,
                    TrafficPattern::Uniform,
                    blockages.clone(),
                    lut.clone(),
                    timeline,
                ),
                None => Simulator::with_fault_timeline(
                    config,
                    RoutingPolicy::SsdtBalance,
                    TrafficPattern::Uniform,
                    scenario.realize(size, SEED),
                    timeline,
                ),
            };
            delivered += sim.run().delivered;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    Case {
        n,
        policy: name,
        cycles: cycles * runs,
        delivered,
        cycles_per_sec: (cycles * runs) as f64 / best,
        packets_per_sec: runs as f64 / best,
    }
}

struct Case {
    n: usize,
    policy: &'static str,
    cycles: usize,
    delivered: u64,
    cycles_per_sec: f64,
    packets_per_sec: f64,
}

fn bench_case(n: usize, cycles: usize, policy: RoutingPolicy, name: &'static str) -> Case {
    bench_config(
        SimConfig {
            size: Size::new(n).expect("benchmark sizes are powers of two"),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 5,
            offered_load: OFFERED_LOAD,
            seed: SEED,
            engine: EngineKind::Synchronous,
        },
        policy,
        name,
    )
}

fn bench_config(config: SimConfig, policy: RoutingPolicy, name: &'static str) -> Case {
    let (n, cycles) = (config.size.n(), config.cycles);
    let mut delivered = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let sim = Simulator::new(config, policy, TrafficPattern::Uniform);
        let start = Instant::now();
        let stats = sim.run();
        let dt = start.elapsed().as_secs_f64();
        delivered = stats.delivered;
        best = best.min(dt);
    }
    Case {
        n,
        policy: name,
        cycles,
        delivered,
        cycles_per_sec: cycles as f64 / best,
        packets_per_sec: delivered as f64 / best,
    }
}

fn bench_wormhole(n: usize, cycles: usize) -> Case {
    let (flits, lanes, name) = WORMHOLE_CASE;
    let config = SimConfig {
        size: Size::new(n).expect("benchmark sizes are powers of two"),
        queue_capacity: 4,
        cycles,
        warmup: cycles / 5,
        offered_load: OFFERED_LOAD,
        seed: SEED,
        engine: EngineKind::Synchronous,
    };
    let mut delivered = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let sim = Simulator::new(config, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
            .with_wormhole_switching(flits, lanes);
        let start = Instant::now();
        let stats = sim.run();
        let dt = start.elapsed().as_secs_f64();
        delivered = stats.delivered;
        best = best.min(dt);
    }
    Case {
        n,
        policy: name,
        cycles,
        delivered,
        cycles_per_sec: cycles as f64 / best,
        packets_per_sec: delivered as f64 / best,
    }
}

fn report(cases: &[Case]) -> Json {
    Json::obj([
        ("benchmark", Json::from("simbench")),
        ("offered_load", Json::from(OFFERED_LOAD)),
        ("seed", Json::from(SEED)),
        ("reps", Json::from(REPS)),
        (
            "cases",
            Json::arr(cases.iter().map(|c| {
                Json::obj([
                    ("n", Json::from(c.n)),
                    ("policy", Json::from(c.policy)),
                    ("cycles", Json::from(c.cycles)),
                    ("delivered", Json::from(c.delivered)),
                    ("cycles_per_sec", Json::from(c.cycles_per_sec)),
                    ("packets_per_sec", Json::from(c.packets_per_sec)),
                ])
            })),
        ),
    ])
}

/// Pulls `(n, policy) -> packets_per_sec` pairs out of a report tree.
fn extract_rates(doc: &Json) -> Vec<(u64, String, f64)> {
    let Json::Obj(pairs) = doc else {
        panic!("baseline root must be an object");
    };
    let cases = pairs
        .iter()
        .find(|(k, _)| k == "cases")
        .map(|(_, v)| v)
        .expect("baseline must have a `cases` array");
    let Json::Arr(items) = cases else {
        panic!("`cases` must be an array");
    };
    items
        .iter()
        .map(|case| {
            let Json::Obj(fields) = case else {
                panic!("each case must be an object");
            };
            let field = |name: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("case is missing `{name}`"))
            };
            let n = match field("n") {
                Json::UInt(v) => *v,
                other => panic!("`n` must be an unsigned integer, got {other:?}"),
            };
            let policy = match field("policy") {
                Json::Str(s) => s.clone(),
                other => panic!("`policy` must be a string, got {other:?}"),
            };
            let rate = match field("packets_per_sec") {
                Json::Float(v) => *v,
                Json::UInt(v) => *v as f64,
                other => panic!("`packets_per_sec` must be a number, got {other:?}"),
            };
            (n, policy, rate)
        })
        .collect()
}

/// Compares current rates against a baseline report; returns the failure
/// messages (empty = gate passes).
fn check_against(baseline: &Json, current: &[Case], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (n, policy, base_rate) in extract_rates(baseline) {
        let Some(case) = current
            .iter()
            .find(|c| c.n as u64 == n && c.policy == policy)
        else {
            failures.push(format!(
                "baseline case N={n} {policy} is no longer measured"
            ));
            continue;
        };
        let floor = base_rate * (1.0 - tolerance);
        if case.packets_per_sec < floor {
            failures.push(format!(
                "N={n} {policy}: {:.0} packets/s < {:.0} (baseline {:.0} - {:.0}%)",
                case.packets_per_sec,
                floor,
                base_rate,
                tolerance * 100.0
            ));
        } else if case.packets_per_sec > base_rate * (1.0 + tolerance) {
            eprintln!(
                "note: N={n} {policy} improved to {:.0} packets/s (baseline {:.0}); \
                 consider refreshing BENCH_sim.json",
                case.packets_per_sec, base_rate
            );
        }
    }
    failures
}

/// Folds every report in a JSONL history into the best rate each
/// `(n, policy)` ever posted, in first-appearance order.
fn best_rates(history: &str) -> Vec<(u64, String, f64)> {
    let mut best: Vec<(u64, String, f64)> = Vec::new();
    for line in history.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = parse(line).expect("every history line must be a valid JSON report");
        for (n, policy, rate) in extract_rates(&doc) {
            match best
                .iter_mut()
                .find(|(bn, bp, _)| *bn == n && *bp == policy)
            {
                Some(entry) => entry.2 = entry.2.max(rate),
                None => best.push((n, policy, rate)),
            }
        }
    }
    best
}

/// Gates `current` against the best-ever rate per `(n, policy)`,
/// printing a one-line delta for every case; returns the failure
/// messages (empty = gate passes). Cases with no history yet pass —
/// they become the bar for the next run.
fn check_history(best: &[(u64, String, f64)], current: &[Case], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for case in current {
        let Some((_, _, best_rate)) = best
            .iter()
            .find(|(n, policy, _)| *n == case.n as u64 && policy == case.policy)
        else {
            eprintln!(
                "history N={:<5} {:<22} {:>14.0} packets/s (first measurement)",
                case.n, case.policy, case.packets_per_sec
            );
            continue;
        };
        let delta = (case.packets_per_sec - best_rate) / best_rate * 100.0;
        eprintln!(
            "history N={:<5} {:<22} {:>14.0} packets/s vs best {:>14.0} ({delta:+.1}%)",
            case.n, case.policy, case.packets_per_sec, best_rate
        );
        if case.packets_per_sec < best_rate * (1.0 - tolerance) {
            failures.push(format!(
                "N={} {}: {:.0} packets/s is more than {:.0}% below the best recorded {:.0}",
                case.n,
                case.policy,
                case.packets_per_sec,
                tolerance * 100.0,
                best_rate
            ));
        }
    }
    failures
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut history_path: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--check" => baseline_path = Some(args.next().expect("--check needs a path")),
            "--history" => history_path = Some(args.next().expect("--history needs a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("--tolerance must be a number");
                assert!(
                    tolerance.is_finite() && (0.0..1.0).contains(&tolerance),
                    "tolerance must be in [0, 1)"
                );
            }
            other => panic!("unknown argument `{other}` (see simbench --help comments)"),
        }
    }

    let mut cases = Vec::new();
    for (n, cycles) in SIZES {
        for (policy, name) in POLICIES {
            let case = bench_case(n, cycles, policy, name);
            eprintln!(
                "N={:<5} {:<12} {:>12.1} cycles/s {:>14.1} packets/s (delivered {})",
                case.n, case.policy, case.cycles_per_sec, case.packets_per_sec, case.delivered
            );
            cases.push(case);
        }
    }
    for (n, cycles) in SIZES {
        let case = bench_wormhole(n, cycles);
        eprintln!(
            "N={:<5} {:<22} {:>12.1} cycles/s {:>14.1} packets/s (delivered {})",
            case.n, case.policy, case.cycles_per_sec, case.packets_per_sec, case.delivered
        );
        cases.push(case);
    }
    for (n, cycles) in LOWLOAD_SIZES {
        let case = bench_config(
            SimConfig {
                size: Size::new(n).expect("benchmark sizes are powers of two"),
                queue_capacity: 4,
                cycles,
                warmup: cycles / 5,
                offered_load: LOWLOAD_RATE / n as f64,
                seed: SEED,
                engine: EngineKind::Synchronous,
            },
            RoutingPolicy::FixedC,
            "FixedC/lowload/sync",
        );
        eprintln!(
            "N={:<5} {:<22} {:>12.1} cycles/s {:>14.1} packets/s (delivered {})",
            case.n, case.policy, case.cycles_per_sec, case.packets_per_sec, case.delivered
        );
        cases.push(case);
    }
    for (share_bases, name) in CAMPAIGN_VARIANTS {
        let case = bench_campaign(share_bases, name);
        eprintln!(
            "N={:<5} {:<22} {:>12.1} cycles/s {:>14.1} runs/s    (delivered {})",
            case.n, case.policy, case.cycles_per_sec, case.packets_per_sec, case.delivered
        );
        cases.push(case);
    }
    let [fresh, shared] = &cases[cases.len() - 2..] else {
        unreachable!()
    };
    assert_eq!(
        fresh.delivered, shared.delivered,
        "shared bases must not change campaign statistics"
    );
    eprintln!(
        "N={:<5} campaign shared-bases speedup: {:.2}x",
        CAMPAIGN.0,
        shared.packets_per_sec / fresh.packets_per_sec
    );

    let doc = report(&cases);
    let encoded = doc.encode();
    assert_round_trip(&encoded).expect("report must round-trip through the JSON writer");
    println!("{encoded}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{encoded}\n")).expect("writing the report must succeed");
        eprintln!("wrote {path}");
    }
    let mut failures = Vec::new();
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).expect("baseline must be readable");
        let baseline = parse(text.trim()).expect("baseline must be valid JSON");
        failures.extend(check_against(&baseline, &cases, tolerance));
    }
    if let Some(path) = &history_path {
        match std::fs::read_to_string(path) {
            Ok(text) => failures.extend(check_history(&best_rates(&text), &cases, tolerance)),
            Err(_) => {
                eprintln!("note: no benchmark history at {path} yet — trajectory gate skipped")
            }
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    if let Some(path) = baseline_path {
        eprintln!(
            "bench gate passed: every configuration within {:.0}% of {path}",
            tolerance * 100.0
        );
    }
    if let Some(path) = history_path {
        eprintln!(
            "trajectory gate passed: every configuration within {:.0}% of the best in {path}",
            tolerance * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(n: usize, policy: &'static str, rate: f64) -> Case {
        Case {
            n,
            policy,
            cycles: 100,
            delivered: 1000,
            cycles_per_sec: 1.0,
            packets_per_sec: rate,
        }
    }

    fn history_line(n: u64, policy: &str, rate: f64) -> String {
        format!(
            r#"{{"benchmark":"simbench","cases":[{{"n":{n},"policy":"{policy}","cycles":100,"delivered":1000,"cycles_per_sec":1.0,"packets_per_sec":{rate}}}]}}"#
        )
    }

    #[test]
    fn best_rates_keep_the_maximum_per_key_across_lines() {
        let history = [
            history_line(64, "FixedC", 100.0),
            history_line(64, "FixedC", 300.0),
            history_line(64, "FixedC", 200.0),
            history_line(256, "FixedC", 50.0),
        ]
        .join("\n");
        let best = best_rates(&history);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0], (64, "FixedC".to_string(), 300.0));
        assert_eq!(best[1], (256, "FixedC".to_string(), 50.0));
    }

    #[test]
    fn history_gate_fails_only_below_the_best_minus_tolerance() {
        let best = vec![(64u64, "FixedC".to_string(), 1000.0)];
        // Within tolerance of the best: pass (even though below it).
        assert!(check_history(&best, &[case(64, "FixedC", 850.0)], 0.20).is_empty());
        // More than 20% below the best-ever: fail.
        let failures = check_history(&best, &[case(64, "FixedC", 700.0)], 0.20);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("best recorded"));
        // A case with no history yet passes and sets the next bar.
        assert!(check_history(&best, &[case(1024, "FixedC", 1.0)], 0.20).is_empty());
    }

    #[test]
    fn blank_history_lines_are_skipped() {
        let history = format!("\n{}\n\n", history_line(64, "FixedC", 10.0));
        assert_eq!(best_rates(&history).len(), 1);
    }
}
