//! `iadm` — command-line explorer for IADM-network routing.
//!
//! ```text
//! iadm route   -n 8 -s 1 -d 0 [--block S0:1-]...     trace a destination tag
//! iadm reroute -n 8 -s 1 -d 0 [--block ...]...       universal rerouting tag
//! iadm paths   -n 8 -s 1 -d 0                        enumerate all paths
//! iadm render  -n 8 [--net iadm|icube|adm|gamma|gcube]  connection table
//! iadm simulate -n 16 --load 0.5 [--policy ssdt|fixed|tsdt] [--cycles 2000]
//! iadm subgraphs -n 8                                Theorem 6.1 summary
//! ```
//!
//! Blockage syntax: `S<stage>:<switch><kind>` with kind `-` (minus link),
//! `=` (straight) or `+` (plus link), e.g. `S0:1-` is the `-2^0` output
//! link of switch 1 at stage 0.

use iadm_analysis::{dot, enumerate, oracle, render};
use iadm_core::route::{trace, trace_tsdt};
use iadm_core::{reroute::reroute, NetworkState};
use iadm_fault::BlockageMap;
use iadm_sim::{SimScratch, SimStats};
use iadm_sweep::{RunBases, SweepSpec};
use iadm_topology::{Adm, Gamma, GeneralizedCube, ICube, Iadm, Link, LinkKind, Size};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  iadm route    -n <N> -s <src> -d <dst> [--block S<i>:<j><-|=|+>]...
  iadm reroute  -n <N> -s <src> -d <dst> [--block ...]...
  iadm paths    -n <N> -s <src> -d <dst> [--block ...]...
  iadm render   -n <N> [--net iadm|icube|adm|gamma|gcube]
  iadm simulate -n <N> [--load <f>] [--cycles <c>] [--warmup <w>]
                [--policy fixed|ssdt|random|tsdt|dchoice:<d>[:sticky]]
                [--mode sf|wormhole:<flits>[:<lanes>]] [--repair aware|blind]
                [--workload open|rr:<clients>:<think>[:<req>x<resp>]|flow:<clients>:<think>:<pkts>|allreduce:<p>:<think>|adv:<load>:<burst>]
                [--converge <window>:<tol>] [--faults <scenario>] [--block ...]...
  iadm subgraphs -n <N>
  iadm dot      -n <N> [--net ...] [-s <src> -d <dst>] [--block ...]...   (Graphviz output)
  iadm broadcast -n <N> -s <src> [--dests 1,2,5]
  iadm sweep    [--spec smoke|e13|e15|e16|e17|e18|e19|e20] [--threads <t>] [--out results/….json]
                [--n 8,64] [--loads 0.1,0.5] [--policies fixed,ssdt,tsdt,dchoice:2,dchoice:2:sticky]
                [--patterns uniform,bitrev,hotspot:<d>] [--queues 4]
                [--modes sf,wormhole:<flits>[:<lanes>]] [--repairs aware,blind]
                [--workloads open,rr:all:32,flow:8:16:4,allreduce:all:64,adv:0.5:32]
                [--cycles <c>] [--warmup <w>] [--seed <s>] [--converge <window>:<tol>]
                [--faults none,rand:<k>,mtbf:<m>:<r>,outage:<k>:<down>:<up>,double:S<i>:<j>,stageburst:S<i>,band:S<i>:<j>x<w>,link:S<i>:<j><-|=|+>]
                [--shard <k>/<m>] [--journal <path>] [--resume <path>] [--merge <p1,p2,…>]

fault scenarios: `mtbf:<mtbf>:<mttr>` schedules transient link failures
(exponential fail/repair holding times, repaired online mid-run);
`outage:<links>:<down>:<up>` fails a random burst of links at cycle
`down` and repairs them all at cycle `up` with no other churn (the
repair-recovery scenario); the other forms block links for the whole
run.

switching modes: `sf` is store-and-forward (default); `wormhole:<flits>`
pipelines each packet as a worm of that many flits over reserved link
lanes (one lane per link unless `:<lanes>` is given). A head takes the
lowest free lane of a link; every published statistic is lane-invariant.

tag repair: under `--policy tsdt` with an mtbf or outage scenario, `aware`
(default) senders retag destinations whose cached route was refused or
bent the moment the blamed link is repaired; `blind` senders keep stale
tags until the next failure flushes the cache. The delta is the E20
repair-awareness experiment.

workloads: `open` (default) is the Bernoulli open loop driven by
`--load`; the others own injection (store-and-forward only, `--load`
must stay 0): `rr:<clients>:<think>` runs a closed request → response →
think loop (`all` = one client per port) and reports request-latency
percentiles, `flow:…:<pkts>` sends multi-packet flows, `allreduce`
runs a barrier-synchronized ring allreduce, and `adv:<load>:<burst>`
plays an adversarial moving-permutation schedule.

policies: `dchoice:<d>` samples d of the pivot-theory candidate links
and takes the least-loaded (d=2 is the full power-of-two-choices
policy, exact on the IADM — a message never has more than two routable
links); `:sticky` keeps the previous winner until its queue fills.

steady state: `--converge <window>:<tol>` (e.g. 250:0.05) stops a run
early once two consecutive <window>-cycle mean latencies agree within
relative <tol>; the stop cycle lands in the artifact as
`converged_at_cycle`. Identical across thread counts.

fleet-scale sweeps: `--journal <path>` streams the campaign (memory
stays flat) and appends each finished run to an on-disk progress
journal; `--resume <path>` picks an interrupted journal back up,
re-running only the missing runs; `--shard <k>/<m>` executes the k-th
of m contiguous run-index ranges (combine with --journal, one journal
per shard, possibly on separate machines); `--merge <p1,p2,…>` stitches
shard journals into the single artifact, byte-identical to a
one-process `--out` run. Streamed sweeps skip the summary tables.";

/// A tiny flag parser: collects `--key value`, `-k value` pairs and
/// repeated `--block` occurrences.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            if !key.starts_with('-') {
                return Err(format!("unexpected argument {key}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {key} needs a value"))?;
            flags.push((key.trim_start_matches('-').to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Rejects any flag outside `allowed` — a typo'd or misplaced flag is
    /// an error, never silently dropped.
    fn reject_unknown(&self, command: &str, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.flags {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown flag --{key} for `{command}` (expected one of: {})",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }

    fn require_usize(&self, key: &str) -> Result<usize, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag -{key}"))?
            .parse()
            .map_err(|_| format!("flag -{key} must be a number"))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag -{key} must be a number")),
            None => Ok(default),
        }
    }

    fn blocks(&self, size: Size) -> Result<BlockageMap, String> {
        self.blocks_onto(size, BlockageMap::new(size))
    }

    /// Applies every `--block` flag on top of an existing map (so manual
    /// blockages compose with a realized `--faults` scenario).
    fn blocks_onto(&self, size: Size, mut map: BlockageMap) -> Result<BlockageMap, String> {
        for (k, v) in &self.flags {
            if k == "block" {
                map.block(parse_link(size, v)?);
            }
        }
        Ok(map)
    }
}

/// Parses `S<stage>:<switch><-|=|+>` and range-checks against `size`.
fn parse_link(size: Size, text: &str) -> Result<Link, String> {
    let link = parse_link_unchecked(text)?;
    if link.stage >= size.stages() || link.from >= size.n() {
        return Err(format!("link {text} out of range for N={}", size.n()));
    }
    Ok(link)
}

/// Parses `S<stage>:<switch><-|=|+>` without a size bound (sweep specs
/// range-check per network size at expansion time).
fn parse_link_unchecked(text: &str) -> Result<Link, String> {
    let body = text
        .strip_prefix('S')
        .or_else(|| text.strip_prefix('s'))
        .ok_or_else(|| format!("link {text} must start with S"))?;
    let (stage_str, rest) = body
        .split_once(':')
        .ok_or_else(|| format!("link {text} must look like S<stage>:<switch><kind>"))?;
    let stage: usize = stage_str
        .parse()
        .map_err(|_| format!("bad stage in {text}"))?;
    let kind = match rest.chars().last() {
        Some('-') => LinkKind::Minus,
        Some('=') => LinkKind::Straight,
        Some('+') => LinkKind::Plus,
        _ => return Err(format!("link {text} must end with -, = or +")),
    };
    let switch: usize = rest[..rest.len() - 1]
        .parse()
        .map_err(|_| format!("bad switch in {text}"))?;
    Ok(Link::new(stage, switch, kind))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let parsed = Args::parse(rest)?;
    let allowed: &[&str] = match command.as_str() {
        "route" | "reroute" | "paths" => &["n", "s", "d", "block"],
        "render" => &["n", "net"],
        "simulate" => &[
            "n", "load", "cycles", "warmup", "policy", "mode", "repair", "workload", "queue",
            "seed", "faults", "block", "converge",
        ],
        "subgraphs" => &["n"],
        "dot" => &["n", "net", "s", "d", "block"],
        "broadcast" => &["n", "s", "dests"],
        "sweep" => &[
            "spec",
            "threads",
            "out",
            "n",
            "loads",
            "policies",
            "patterns",
            "modes",
            "repairs",
            "workloads",
            "queues",
            "cycles",
            "warmup",
            "seed",
            "faults",
            "shard",
            "journal",
            "resume",
            "merge",
            "converge",
        ],
        other => return Err(format!("unknown command {other}")),
    };
    parsed.reject_unknown(command, allowed)?;
    match command.as_str() {
        "sweep" => return cmd_sweep(&parsed),
        "simulate" => return cmd_simulate(&parsed),
        _ => {}
    }
    let size = Size::new(parsed.usize_or("n", 8)?).map_err(|e| e.to_string())?;
    match command.as_str() {
        "route" => cmd_route(size, &parsed),
        "reroute" => cmd_reroute(size, &parsed),
        "paths" => cmd_paths(size, &parsed),
        "render" => cmd_render(size, &parsed),
        "subgraphs" => cmd_subgraphs(size),
        "dot" => cmd_dot(size, &parsed),
        "broadcast" => cmd_broadcast(size, &parsed),
        _ => unreachable!("command validated against the flag table"),
    }
}

fn endpoints(size: Size, args: &Args) -> Result<(usize, usize), String> {
    let s = args.require_usize("s")?;
    let d = args.require_usize("d")?;
    if s >= size.n() || d >= size.n() {
        return Err(format!(
            "source/destination out of range for N={}",
            size.n()
        ));
    }
    Ok((s, d))
}

fn cmd_route(size: Size, args: &Args) -> Result<(), String> {
    let (s, d) = endpoints(size, args)?;
    let blockages = args.blocks(size)?;
    let path = trace(size, s, d, &NetworkState::all_c(size));
    println!(
        "destination tag: {d:0width$b} (binary of {d})",
        width = size.stages()
    );
    println!("all-C (ICube) path: {}", render::path_inline(size, &path));
    print!("{}", render::path_column_view(size, &path));
    if !blockages.is_empty() {
        match blockages.first_blockage_on(&path) {
            Some(link) => println!("blocked at {link}; try `iadm reroute`"),
            None => println!("path avoids all {} blockage(s)", blockages.blocked_count()),
        }
    }
    Ok(())
}

fn cmd_reroute(size: Size, args: &Args) -> Result<(), String> {
    let (s, d) = endpoints(size, args)?;
    let blockages = args.blocks(size)?;
    match reroute(size, &blockages, s, d) {
        Ok(tag) => {
            let path = trace_tsdt(size, s, &tag);
            println!("TSDT tag: {tag} (destination bits then state bits)");
            println!("path: {}", render::path_inline(size, &path));
            print!("{}", render::path_column_view(size, &path));
            Ok(())
        }
        Err(e) => {
            // The FAIL verdict is a proof; double-check with the oracle.
            debug_assert!(!oracle::free_path_exists(size, &blockages, s, d));
            println!("no blockage-free path exists: {e}");
            Ok(())
        }
    }
}

fn cmd_paths(size: Size, args: &Args) -> Result<(), String> {
    let (s, d) = endpoints(size, args)?;
    let blockages = args.blocks(size)?;
    if blockages.is_empty() {
        print!("{}", render::all_paths_listing(size, s, d));
    } else {
        let free = enumerate::all_free_paths(size, &blockages, s, d);
        println!(
            "{} blockage-free routing paths from {s} to {d} (of {} total):",
            free.len(),
            enumerate::count_paths(size, s, d)
        );
        for p in &free {
            println!("  {}", render::path_inline(size, p));
        }
    }
    Ok(())
}

fn cmd_render(size: Size, args: &Args) -> Result<(), String> {
    let table = match args.get("net").unwrap_or("iadm") {
        "iadm" => render::connection_table(&Iadm::new(size)),
        "icube" => render::connection_table(&ICube::new(size)),
        "adm" => render::connection_table(&Adm::new(size)),
        "gamma" => render::connection_table(&Gamma::new(size)),
        "gcube" => render::connection_table(&GeneralizedCube::new(size)),
        other => return Err(format!("unknown network {other}")),
    };
    print!("{table}");
    Ok(())
}

/// The statistics of the one run a `simulate` command line describes:
/// the default campaign edited by the flags and expanded, so validated
/// exactly as `sweep` validates, to its one point. The run takes `--seed`
/// as its run seed, so `simulate --seed S` reproduces the campaign point
/// whose run seed is S, and `--block` links are layered onto the map its
/// scenario realizes.
fn simulate_stats(args: &Args) -> Result<SimStats, String> {
    let mut spec = SweepSpec::default();
    apply_spec_flags(&mut spec, args)?;
    let mut runs = spec.expand()?;
    let [run] = &mut runs[..] else {
        return Err("simulate runs one point; use sweep for lists".into());
    };
    run.seed = spec.campaign_seed;
    let bases = RunBases::new(args.blocks_onto(run.size, run.blockages())?);
    Ok(run.simulator(&bases, &mut SimScratch::default()).run())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let stats = simulate_stats(args)?;
    println!("cycles          {}", stats.cycles);
    println!("injected        {}", stats.injected);
    println!("delivered       {}", stats.delivered);
    println!("dropped         {}", stats.dropped);
    println!("refused         {}", stats.refused);
    println!("in flight       {}", stats.in_flight);
    println!("misrouted       {}", stats.misrouted);
    println!("mean latency    {:.2} cycles", stats.mean_latency());
    println!("max latency     {} cycles", stats.latency_max);
    println!("throughput      {:.4} pkts/port/cycle", stats.throughput());
    println!("peak queue      {}", stats.queue_high_water);
    if stats.converged_at_cycle > 0 {
        println!("converged at    cycle {}", stats.converged_at_cycle);
    }
    if stats.flits_per_packet > 0 {
        println!("flits/packet    {}", stats.flits_per_packet);
        println!("flits injected  {}", stats.flits_injected);
        println!("flits delivered {}", stats.flits_delivered);
        println!(
            "flits lost      {} dropped + {} refused + {} in flight",
            stats.flits_dropped, stats.flits_refused, stats.flits_in_flight
        );
    }
    if stats.workload.issued > 0 {
        let wl = &stats.workload;
        println!("requests issued {}", wl.issued);
        println!(
            "requests done   {} completed + {} aborted + {} live",
            wl.completed, wl.aborted, wl.live
        );
        println!("request latency {:.2} cycles mean", wl.mean_latency());
        println!(
            "request p50/p95/p99  {} / {} / {} cycles",
            wl.percentile(0.50),
            wl.percentile(0.95),
            wl.percentile(0.99)
        );
    }
    if stats.fault_events > 0 {
        println!("fault events    {}", stats.fault_events);
        println!("reroutes        {}", stats.reroutes);
        println!(
            "outage drops    {} of {} total drops",
            stats.dropped_during_outage, stats.dropped
        );
        println!("links failed    {}", stats.links_failed);
        println!("link downtime   {} link-cycles", stats.link_downtime_cycles);
        println!(
            "availability    min {:.4} / mean {:.4}",
            stats.availability_min, stats.availability_mean
        );
        if stats.repair_events > 0 {
            println!("repair events   {}", stats.repair_events);
        }
        if stats.retags_on_repair > 0 {
            println!("repair retags   {}", stats.retags_on_repair);
        }
    }
    Ok(())
}

fn cmd_dot(size: Size, args: &Args) -> Result<(), String> {
    let net = Iadm::new(size);
    match (args.get("s"), args.get("d")) {
        (Some(_), Some(_)) => {
            let (s, d) = endpoints(size, args)?;
            let blockages = args.blocks(size)?;
            // Highlight the (re)routed path if one exists.
            match reroute(size, &blockages, s, d) {
                Ok(tag) => {
                    let path = trace_tsdt(size, s, &tag);
                    print!("{}", dot::network_with_path(&net, &path));
                }
                Err(_) => return Err(format!("no blockage-free path from {s} to {d}")),
            }
        }
        _ => match args.get("net").unwrap_or("iadm") {
            "iadm" => print!("{}", dot::network(&net)),
            "icube" => print!("{}", dot::network(&ICube::new(size))),
            "adm" => print!("{}", dot::network(&Adm::new(size))),
            "gamma" => print!("{}", dot::network(&Gamma::new(size))),
            "gcube" => print!("{}", dot::network(&GeneralizedCube::new(size))),
            other => return Err(format!("unknown network {other}")),
        },
    }
    Ok(())
}

fn cmd_broadcast(size: Size, args: &Args) -> Result<(), String> {
    let s = args.require_usize("s")?;
    if s >= size.n() {
        return Err(format!("source out of range for N={}", size.n()));
    }
    let dests: Vec<usize> = match args.get("dests") {
        Some(list) => list
            .split(',')
            .map(|x| {
                x.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad destination {x}"))
            })
            .collect::<Result<_, _>>()?,
        None => (0..size.n()).collect(),
    };
    if dests.iter().any(|&d| d >= size.n()) {
        return Err(format!("destination out of range for N={}", size.n()));
    }
    let state = NetworkState::all_c(size);
    let tree = iadm_core::broadcast::multicast_tree(size, s, &dests, &state);
    println!(
        "multicast tree from {s} to {:?}: {} links",
        tree.destinations(),
        tree.link_count()
    );
    for stage in size.stage_indices() {
        let labels: Vec<String> = tree.links_at(stage).iter().map(|l| l.to_string()).collect();
        println!("  stage {stage}: {}", labels.join("  "));
    }
    Ok(())
}

/// Edits `spec`'s axes and run parameters from the command line (a flag
/// overrides its axis; `--cycles` also sets the warm-up to a fifth; a
/// closed-loop workload collapses the loads axis to `0.0` unless a load
/// is given). `sweep` spells the axis flags in the plural and takes
/// comma-separated lists (`--loads 0.1,0.5`); `simulate` spells them in
/// the singular (`--load 0.5`). Each command's flag table admits only
/// its own spelling, so looking up both is unambiguous.
fn apply_spec_flags(spec: &mut SweepSpec, args: &Args) -> Result<(), String> {
    fn list<T>(text: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        text.split(',').map(|x| parse(x.trim())).collect()
    }
    let axis = |plural: &str, singular: &str| args.get(plural).or_else(|| args.get(singular));
    if let Some(text) = args.get("n") {
        spec.sizes = parse_usize_list(text, "n")?;
    }
    if let Some(text) = axis("loads", "load") {
        spec.loads = iadm_sweep::parse_loads(text)?;
    }
    if let Some(text) = axis("policies", "policy") {
        spec.policies = list(text, iadm_sweep::parse_policy)?;
    }
    if let Some(text) = args.get("patterns") {
        spec.patterns = list(text, iadm_sweep::parse_pattern)?;
    }
    if let Some(text) = axis("modes", "mode") {
        spec.modes = list(text, iadm_sweep::parse_mode)?;
    }
    if let Some(text) = axis("repairs", "repair") {
        spec.tag_repairs = list(text, iadm_sweep::parse_tag_repair)?;
    }
    if let Some(text) = axis("workloads", "workload") {
        spec.workloads = list(text, iadm_sim::WorkloadSpec::parse)?;
        // Non-open workloads own injection; collapse the loads axis to the
        // only legal value unless the user pinned it explicitly.
        if spec.workloads.iter().any(|w| w.is_closed()) && axis("loads", "load").is_none() {
            spec.loads = vec![0.0];
        }
    }
    if let Some(text) = axis("queues", "queue") {
        spec.queue_capacities = parse_usize_list(text, "queues")?;
    }
    if let Some(text) = args.get("faults") {
        spec.scenarios = list(text, parse_scenario_flag)?;
    }
    if args.get("cycles").is_some() {
        spec.cycles = args.usize_or("cycles", 0)?;
        spec.warmup = spec.cycles / 5;
    }
    if args.get("warmup").is_some() {
        spec.warmup = args.usize_or("warmup", 0)?;
    }
    if args.get("seed").is_some() {
        spec.campaign_seed = args.usize_or("seed", 0)? as u64;
    }
    if let Some(text) = args.get("converge") {
        spec.converge = Some(iadm_sweep::parse_converge(text)?);
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    use iadm_sweep::{campaign_json, pivot_table, run_campaign, summary_table};

    let mut spec = match args.get("spec") {
        Some(name) => SweepSpec::builtin(name)?,
        None => SweepSpec::default(),
    };
    apply_spec_flags(&mut spec, args)?;

    let threads = args.usize_or("threads", 1)?;
    if let Some(paths) = args.get("merge") {
        return cmd_sweep_merge(&spec, paths, args.get("out"));
    }
    if args.get("shard").is_some() || args.get("journal").is_some() || args.get("resume").is_some()
    {
        return cmd_sweep_stream(&spec, threads, args);
    }
    let started = std::time::Instant::now();
    let result = run_campaign(&spec, threads)?;
    let elapsed = started.elapsed();
    let text = campaign_json(&result).encode();
    // Artifact validation: the document must parse and re-encode to the
    // same bytes before anything is written or printed.
    iadm_bench::json::assert_round_trip(&text)
        .map_err(|e| format!("campaign JSON failed validation: {e}"))?;

    println!(
        "campaign {} · {} runs · {} thread(s) · {:.2} s wall",
        result.name,
        result.runs.len(),
        threads,
        elapsed.as_secs_f64()
    );
    println!();
    print!("{}", summary_table(&result));
    println!();
    println!("p99 latency (cycles) by load × policy/scenario:");
    print!(
        "{}",
        pivot_table(&result, &|r| r.stats.percentile(0.99).to_string())
    );
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
            println!();
            println!("wrote {path}");
        }
        None => {
            println!();
            println!("{text}");
        }
    }
    Ok(())
}

/// Parses the `--shard k/m` syntax into its 1-based (k, m) pair.
fn parse_shard(text: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard wants k/m (e.g. 2/4), got {text:?}");
    let (k, m) = text.split_once('/').ok_or_else(err)?;
    Ok((
        k.trim().parse().map_err(|_| err())?,
        m.trim().parse().map_err(|_| err())?,
    ))
}

/// The fleet-scale sweep path: stream fragments to a progress journal
/// and (for a full-range run) the artifact, holding only the
/// out-of-order reassembly window in memory.
fn cmd_sweep_stream(
    spec: &iadm_sweep::SweepSpec,
    threads: usize,
    args: &Args,
) -> Result<(), String> {
    use std::io::Write;

    let total = spec.grid_len();
    let (k, m) = match args.get("shard") {
        Some(text) => parse_shard(text)?,
        None => (1, 1),
    };
    let range = iadm_sweep::shard_range(total, k, m)?;
    let journal_path = match (args.get("journal"), args.get("resume")) {
        (Some(_), Some(_)) => {
            return Err("--resume already names the journal; drop --journal".into())
        }
        (Some(path), None) => {
            // A fresh journal must not clobber an interrupted one.
            if std::fs::metadata(path)
                .map(|meta| meta.len() > 0)
                .unwrap_or(false)
            {
                return Err(format!(
                    "journal {path} already exists; resume it with --resume {path}"
                ));
            }
            Some(path)
        }
        (None, path) => path,
    };
    // Resumed fragments: validated against this spec's name, seed and
    // run count, so a journal can never leak into the wrong campaign.
    let done = match args.get("resume") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => iadm_sweep::parse_journal(&text, spec, total)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        },
        None => Default::default(),
    };
    // The journal is rewritten from its validated lines (header first,
    // replayed fragments by index), which also heals a torn final line
    // from a killed process before fresh appends land after it.
    let mut journal = match journal_path {
        Some(path) => {
            let mut file = std::fs::File::create(path)
                .map_err(|e| format!("cannot write journal {path}: {e}"))?;
            let mut text = iadm_sweep::journal_header(spec, total);
            let mut indices: Vec<&usize> = done.keys().collect();
            indices.sort_unstable();
            for index in indices {
                text.push('\n');
                text.push_str(&done[index]);
            }
            text.push('\n');
            file.write_all(text.as_bytes())
                .map_err(|e| format!("cannot write journal {path}: {e}"))?;
            Some((file, path))
        }
        None => None,
    };
    let full_range = range == (0..total);
    if !full_range && journal.is_none() {
        return Err(format!(
            "shard {k}/{m} covers runs {}..{} only; add --journal <path> to record it, \
             then stitch shards with --merge",
            range.start, range.end
        ));
    }
    // The artifact streams to --out (or stdout) only when this process
    // covers the whole campaign; a shard's output is its journal.
    let mut artifact: Option<Box<dyn Write>> = if full_range {
        match args.get("out") {
            Some(path) => Some(Box::new(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?,
            ))),
            None => None,
        }
    } else {
        if args.get("out").is_some() {
            return Err("a shard cannot write --out; merge the shard journals instead".into());
        }
        None
    };
    if let Some(writer) = artifact.as_mut() {
        writer
            .write_all(
                iadm_sweep::artifact_prefix(&spec.name, spec.campaign_seed, total).as_bytes(),
            )
            .map_err(|e| format!("artifact write failed: {e}"))?;
    }
    let started = std::time::Instant::now();
    let first = std::cell::Cell::new(true);
    let summary = iadm_sweep::stream_campaign(
        spec,
        threads,
        range.clone(),
        &done,
        &mut |_, fragment| {
            if let Some((file, path)) = journal.as_mut() {
                file.write_all(fragment.as_bytes())
                    .and_then(|()| file.write_all(b"\n"))
                    .map_err(|e| format!("cannot append to journal {path}: {e}"))?;
            }
            Ok(())
        },
        &mut |_, fragment| {
            let Some(writer) = artifact.as_mut() else {
                return Ok(());
            };
            if !first.replace(false) {
                writer
                    .write_all(b",")
                    .map_err(|e| format!("artifact write failed: {e}"))?;
            }
            writer
                .write_all(fragment.as_bytes())
                .map_err(|e| format!("artifact write failed: {e}"))
        },
    )?;
    let elapsed = started.elapsed();
    if let Some(writer) = artifact.as_mut() {
        writer
            .write_all(iadm_sweep::ARTIFACT_SUFFIX.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("artifact write failed: {e}"))?;
    }
    println!(
        "campaign {} · shard {}/{} · runs {}..{} of {} · {} executed, {} replayed · {} thread(s) · {:.2} s wall",
        spec.name,
        k,
        m,
        summary.range.start,
        summary.range.end,
        summary.total,
        summary.executed,
        summary.replayed,
        threads,
        elapsed.as_secs_f64()
    );
    if let Some((_, path)) = journal {
        println!("journal {path}");
    }
    if full_range {
        if let Some(path) = args.get("out") {
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Stitches shard journals into the canonical campaign artifact —
/// byte-identical to a single-process `--out` run of the same spec.
fn cmd_sweep_merge(
    spec: &iadm_sweep::SweepSpec,
    paths: &str,
    out: Option<&str>,
) -> Result<(), String> {
    let total = spec.grid_len();
    let mut journals = Vec::new();
    for path in paths.split(',') {
        let path = path.trim();
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        journals.push(
            iadm_sweep::parse_journal(&text, spec, total).map_err(|e| format!("{path}: {e}"))?,
        );
    }
    let fragments = iadm_sweep::union_fragments(journals)?;
    let text = iadm_sweep::merge_fragments(spec, total, &fragments)?;
    iadm_bench::json::assert_round_trip(&text)
        .map_err(|e| format!("merged campaign JSON failed validation: {e}"))?;
    println!("campaign {} · merged {} runs", spec.name, total);
    match out {
        Some(path) => {
            std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Parses a comma-separated `usize` list for sweep axis flags.
fn parse_usize_list(text: &str, flag: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|x| {
            x.trim()
                .parse::<usize>()
                .map_err(|_| format!("flag --{flag}: bad entry {x}"))
        })
        .collect()
}

/// Sweep fault-scenario syntax: everything `iadm_sweep::parse_scenario`
/// accepts, plus `link:S<stage>:<switch><-|=|+>` for one specific link.
fn parse_scenario_flag(text: &str) -> Result<iadm_fault::scenario::ScenarioSpec, String> {
    if let Some(link) = text.strip_prefix("link:") {
        return Ok(iadm_fault::scenario::ScenarioSpec::SingleLink(
            parse_link_unchecked(link)?,
        ));
    }
    iadm_sweep::parse_scenario(text)
}

fn cmd_subgraphs(size: Size) -> Result<(), String> {
    use iadm_permute::cube_subgraph::{distinct_prefix_count, theorem_6_1_lower_bound};
    println!("N = {}", size.n());
    println!(
        "distinct relabel prefixes (stages 0..n-2): {} (Theorem 6.1 says N/2 = {})",
        distinct_prefix_count(size),
        size.n() / 2
    );
    println!(
        "lower bound on distinct cube subgraphs: (N/2)*2^N = {}",
        theorem_6_1_lower_bound(size)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sz(n: usize) -> Size {
        Size::new(n).unwrap()
    }

    #[test]
    fn parse_link_accepts_all_kinds() {
        let size = sz(8);
        assert_eq!(parse_link(size, "S0:1-").unwrap(), Link::minus(0, 1));
        assert_eq!(parse_link(size, "S2:7=").unwrap(), Link::straight(2, 7));
        assert_eq!(parse_link(size, "s1:3+").unwrap(), Link::plus(1, 3));
    }

    #[test]
    fn parse_link_rejects_garbage() {
        let size = sz(8);
        assert!(parse_link(size, "0:1-").is_err());
        assert!(parse_link(size, "S9:1-").is_err(), "stage out of range");
        assert!(parse_link(size, "S0:9-").is_err(), "switch out of range");
        assert!(parse_link(size, "S0:1*").is_err());
        assert!(parse_link(size, "S0-1").is_err());
    }

    #[test]
    fn args_parse_flags_and_blocks() {
        let raw: Vec<String> = ["-n", "8", "--block", "S0:1-", "--block", "S1:2+"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.require_usize("n").unwrap(), 8);
        let blocks = args.blocks(sz(8)).unwrap();
        assert_eq!(blocks.blocked_count(), 2);
        assert!(blocks.is_blocked(Link::minus(0, 1)));
        assert!(blocks.is_blocked(Link::plus(1, 2)));
    }

    #[test]
    fn run_smoke_tests_every_command() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["route", "-n", "8", "-s", "1", "-d", "0"],
            vec![
                "reroute", "-n", "8", "-s", "1", "-d", "0", "--block", "S0:1-",
            ],
            vec!["paths", "-n", "8", "-s", "1", "-d", "0"],
            vec!["paths", "-n", "8", "-s", "1", "-d", "0", "--block", "S0:1-"],
            vec!["render", "-n", "8", "--net", "gcube"],
            vec!["simulate", "-n", "8", "--cycles", "50", "--load", "0.2"],
            vec!["simulate", "-n", "8", "--cycles", "50", "--policy", "tsdt"],
            vec!["simulate", "-n", "8", "--cycles", "50", "--warmup", "10"],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "80",
                "--mode",
                "wormhole:4",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--mode",
                "wormhole:2:2",
                "--faults",
                "mtbf:40:15",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "200",
                "--faults",
                "mtbf:50:20",
            ],
            vec![
                "simulate", "-n", "8", "--cycles", "100", "--faults", "rand:2", "--block", "S0:1-",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--workload",
                "rr:all:8",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--workload",
                "flow:4:8:3",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "150",
                "--workload",
                "allreduce:all:16",
                "--faults",
                "mtbf:60:20",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--workload",
                "adv:0.4:16",
                "--policy",
                "tsdt",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "200",
                "--policy",
                "dchoice:2",
                "--converge",
                "25:0.2",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--policy",
                "dchoice:2:sticky",
                "--faults",
                "rand:2",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--policy",
                "dchoice:1",
                "--mode",
                "wormhole:4",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "120",
                "--mode",
                "wormhole:4:2",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "200",
                "--policy",
                "tsdt",
                "--faults",
                "mtbf:40:15",
                "--repair",
                "blind",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "300",
                "--policy",
                "tsdt",
                "--faults",
                "outage:6:50:120",
            ],
            vec!["subgraphs", "-n", "16"],
            vec!["dot", "-n", "4"],
            vec!["dot", "-n", "8", "-s", "1", "-d", "0", "--block", "S0:1-"],
            vec!["broadcast", "-n", "8", "-s", "1", "--dests", "0,5,7"],
            vec!["broadcast", "-n", "8", "-s", "0"],
            vec!["sweep", "--spec", "smoke", "--threads", "2"],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0.3",
                "--policies",
                "fixed,ssdt",
                "--cycles",
                "100",
                "--faults",
                "none,link:S0:1-",
            ],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0.4",
                "--policies",
                "ssdt,tsdt",
                "--cycles",
                "100",
                "--faults",
                "none,mtbf:40:15",
            ],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0.3",
                "--policies",
                "ssdt",
                "--modes",
                "sf,wormhole:4",
                "--cycles",
                "100",
                "--faults",
                "none,mtbf:40:15",
            ],
            vec![
                "sweep",
                "--n",
                "8",
                "--policies",
                "ssdt,tsdt",
                "--workloads",
                "rr:all:8,flow:4:8:2",
                "--cycles",
                "100",
                "--faults",
                "none,mtbf:40:15",
            ],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0.4",
                "--policies",
                "ssdt,dchoice:2,dchoice:2:sticky",
                "--cycles",
                "120",
                "--converge",
                "20:0.2",
            ],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0.3",
                "--policies",
                "tsdt",
                "--modes",
                "wormhole:4:2",
                "--repairs",
                "aware,blind",
                "--cycles",
                "100",
                "--faults",
                "none,mtbf:40:15",
            ],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            run(&args).unwrap_or_else(|e| panic!("{case:?}: {e}"));
        }
    }

    #[test]
    fn run_rejects_unknown_commands_and_flags() {
        for case in [
            vec!["frobnicate"],
            // Missing -s/-d.
            vec!["route", "-n", "8"],
            vec!["simulate", "-n", "8", "--cycles", "50", "--warmup", "60"],
            // The warm-up must leave a measured cycle, as in `sweep`.
            vec!["simulate", "-n", "8", "--cycles", "50", "--warmup", "50"],
            vec!["simulate", "-n", "8", "--cycles", "0"],
            // Queue capacities outside the arenas' u16 ring offsets.
            vec!["simulate", "-n", "8", "--queue", "0", "--cycles", "10"],
            vec!["simulate", "-n", "8", "--queue", "100000", "--cycles", "50"],
            // `simulate` runs one point.
            vec!["simulate", "-n", "8", "--policy", "ssdt,fixed"],
        ] {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            assert!(run(&args).is_err(), "{case:?} must fail");
        }
    }

    /// `simulate` with a campaign point's flags and run seed reproduces
    /// that point's statistics byte for byte: both commands build the run
    /// through `RunSpec::simulator`.
    #[test]
    fn simulate_equals_its_sweep_point() {
        fn singular(flag: &str) -> &str {
            match flag {
                "--loads" => "--load",
                "--policies" => "--policy",
                "--modes" => "--mode",
                "--workloads" => "--workload",
                other => other,
            }
        }
        for case in [
            vec!["--loads", "0.3"],
            vec!["--loads", "0.3", "--faults", "rand:2"],
            vec![
                "--loads",
                "0.3",
                "--policies",
                "tsdt",
                "--faults",
                "mtbf:40:15",
                "--modes",
                "wormhole:2:2",
            ],
            vec!["--workloads", "rr:all:8", "--faults", "mtbf:60:20"],
            vec![
                "--loads",
                "0.4",
                "--policies",
                "dchoice:2",
                "--converge",
                "25:0.2",
            ],
        ] {
            let mut flags = vec!["--n", "8", "--cycles", "200", "--seed", "5"];
            flags.extend(&case);
            let sweep: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            let mut spec = SweepSpec::default();
            apply_spec_flags(&mut spec, &Args::parse(&sweep).unwrap()).unwrap();
            let runs = spec.expand().unwrap();
            assert_eq!(runs.len(), 1, "{case:?}");
            let expected = iadm_sweep::execute_run(&runs[0]).stats;

            let seed = runs[0].seed.to_string();
            let mut simulate: Vec<String> = flags.iter().map(|f| singular(f).to_string()).collect();
            simulate[5] = seed;
            let stats = simulate_stats(&Args::parse(&simulate).unwrap()).unwrap();
            assert_eq!(
                iadm_bench::json::sim_stats_json(&stats).encode(),
                iadm_bench::json::sim_stats_json(&expected).encode(),
                "{case:?}"
            );
            assert!(
                stats.injected + stats.workload.issued > 0,
                "{case:?} ran empty"
            );
        }
    }

    #[test]
    fn unknown_flags_error_instead_of_being_dropped() {
        let cases: Vec<Vec<&str>> = vec![
            // Typo'd flag name.
            vec!["route", "-n", "8", "-s", "1", "-d", "0", "--bloc", "S0:1-"],
            // Valid flag for another command.
            vec!["render", "-n", "8", "--load", "0.5"],
            vec!["simulate", "-n", "8", "--net", "gamma"],
            vec!["subgraphs", "-n", "8", "--verbose", "1"],
            vec!["sweep", "--spec", "smoke", "--thread", "2"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let err = run(&args).expect_err(&format!("{case:?} must be rejected"));
            assert!(err.contains("unknown flag"), "{case:?}: {err}");
            assert!(err.contains("expected one of"), "{case:?}: {err}");
        }
    }

    #[test]
    fn sweep_rejects_bad_axis_values() {
        for case in [
            vec!["sweep", "--spec", "nonsense"],
            vec!["sweep", "--loads", "1.5"],
            vec!["sweep", "--policies", "adaptive"],
            vec!["sweep", "--faults", "meteor"],
            vec!["sweep", "--threads", "0"],
            vec!["sweep", "--n", "7"],
            vec!["sweep", "--faults", "mtbf:0:5"],
            vec!["sweep", "--modes", "cut-through"],
            vec!["sweep", "--modes", "wormhole:0"],
            // The engine and lane-arbitration flags are gone.
            vec!["sweep", "--engines", "sync,event"],
            vec!["sweep", "--arbitrations", "round-robin"],
            vec!["simulate", "-n", "8", "--engine", "event"],
            vec!["simulate", "-n", "8", "--arbitration", "least-held"],
            vec!["sweep", "--workloads", "bogus"],
            vec!["sweep", "--workloads", "rr:all:8", "--loads", "0.5"],
            vec!["sweep", "--workloads", "rr:all:8", "--modes", "wormhole:4"],
            vec!["sweep", "--policies", "dchoice:0"],
            vec!["sweep", "--policies", "dchoice:3"],
            vec!["sweep", "--policies", "dchoice:2:styck"],
            vec!["sweep", "--converge", "250"],
            vec!["sweep", "--converge", "soon:0.05"],
            vec!["sweep", "--converge", "250:-0.1"],
            // Two 5000-cycle windows cannot fit in the 2000-cycle default.
            vec!["sweep", "--converge", "5000:0.05"],
            vec!["simulate", "-n", "8", "--policy", "dchoice:3"],
            vec!["simulate", "-n", "8", "--policy", "dchoice:2:sicky"],
            vec!["simulate", "-n", "8", "--converge", "0:0.05"],
            vec!["simulate", "-n", "8", "--converge", "250"],
            vec![
                "simulate",
                "-n",
                "8",
                "--cycles",
                "100",
                "--converge",
                "80:0.05",
            ],
            vec!["simulate", "-n", "8", "--workload", "bogus"],
            vec![
                "simulate",
                "-n",
                "8",
                "--workload",
                "rr:all:8",
                "--load",
                "0.5",
            ],
            vec![
                "simulate",
                "-n",
                "8",
                "--workload",
                "rr:all:8",
                "--mode",
                "wormhole:4",
            ],
            vec!["simulate", "-n", "8", "--workload", "rr:999:8"],
            vec!["simulate", "-n", "8", "--faults", "mtbf:nope"],
            vec!["simulate", "-n", "8", "--faults", "double:S9:0"],
            vec!["simulate", "-n", "8", "--mode", "wormhole:4:0"],
            vec!["simulate", "-n", "8", "--mode", "virtual-cut"],
            // A lane count beyond the reservation table's u16 counters
            // must be a parse error, never a panic inside the table.
            vec!["simulate", "-n", "8", "--mode", "wormhole:4:70000"],
            vec!["sweep", "--modes", "wormhole:4:70000"],
            vec!["simulate", "-n", "8", "--repair", "psychic"],
            vec!["sweep", "--repairs", "psychic"],
            vec!["simulate", "-n", "8", "--faults", "outage:6:50"],
            vec!["sweep", "--faults", "outage:6:120:50"],
            // Limits the simulator stores in fixed widths: u16 ring
            // offsets and u32 injection timestamps.
            vec!["sweep", "--n", "8", "--cycles", "50", "--queues", "100000"],
            vec![
                "sweep",
                "--n",
                "8",
                "--loads",
                "0",
                "--cycles",
                "5000000000",
            ],
        ] {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            assert!(run(&args).is_err(), "{case:?} must fail");
        }
    }

    #[test]
    fn sweep_reports_queue_slots_past_the_u32_handles() {
        // 3·2048·11 links × 63,551 packets overflow the queue arena's
        // u32 handles: an error from validation, before any allocation.
        let args: Vec<String> = [
            "sweep", "--n", "2048", "--cycles", "50", "--queues", "63551",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("queue slots"), "{err}");
    }

    /// Runs `sweep` with the given extra flags, as strings.
    fn sweep(extra: &[&str]) -> Result<(), String> {
        let mut args: Vec<String> = ["sweep", "--spec", "smoke", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        run(&args)
    }

    #[test]
    fn sharded_sweeps_merge_into_the_single_process_artifact() {
        let dir = std::env::temp_dir().join(format!("iadm-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
        // Reference: one process, whole campaign, in-memory path.
        sweep(&["--out", &p("direct.json")]).unwrap();
        // Same campaign streamed whole: identical bytes.
        sweep(&["--journal", &p("whole.jnl"), "--out", &p("streamed.json")]).unwrap();
        let direct = std::fs::read(p("direct.json")).unwrap();
        assert_eq!(std::fs::read(p("streamed.json")).unwrap(), direct);
        // Two shards, then merge: identical bytes again.
        sweep(&["--shard", "1/2", "--journal", &p("s1.jnl")]).unwrap();
        sweep(&["--shard", "2/2", "--journal", &p("s2.jnl")]).unwrap();
        let merge_list = format!("{},{}", p("s1.jnl"), p("s2.jnl"));
        sweep(&["--merge", &merge_list, "--out", &p("merged.json")]).unwrap();
        assert_eq!(std::fs::read(p("merged.json")).unwrap(), direct);
        // A complete journal resumes to a no-op and still writes the
        // exact artifact.
        sweep(&["--resume", &p("whole.jnl"), "--out", &p("resumed.json")]).unwrap();
        assert_eq!(std::fs::read(p("resumed.json")).unwrap(), direct);
        // Merging only one shard must fail loudly (coverage gap).
        assert!(sweep(&["--merge", &p("s1.jnl"), "--out", &p("bad.json")]).is_err());
        // An existing journal cannot be clobbered by --journal.
        assert!(sweep(&["--journal", &p("whole.jnl")]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_rejects_bad_shard_and_merge_usage() {
        for case in [
            vec!["sweep", "--shard", "0/2"],
            vec!["sweep", "--shard", "3/2"],
            vec!["sweep", "--shard", "two/3"],
            // A partial shard without a journal has nowhere to record
            // progress (the smoke spec has 8 runs, so 1/2 is partial).
            vec!["sweep", "--spec", "smoke", "--shard", "1/2"],
            // A shard's artifact is its journal, never --out.
            vec![
                "sweep",
                "--spec",
                "smoke",
                "--shard",
                "1/2",
                "--journal",
                "/dev/null",
                "--out",
                "x.json",
            ],
            vec!["sweep", "--merge", "/nonexistent-journal.jnl"],
        ] {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            assert!(run(&args).is_err(), "{case:?} must fail");
        }
    }
}
