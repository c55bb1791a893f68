//! The spread tool: runs every workload `k` times, each invocation a
//! fresh process with its own seed, and prints each metric's median,
//! quartiles and interquartile spread beside its regression bound.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::validate::field;
use crate::workloads::{DEFAULT_SEED, WORKLOADS};
use iadm_bench::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the first invocation; invocation `i` uses `seed + i`.
    pub seed: u64,
    /// Invocations per workload.
    pub repeat: u64,
    /// Seconds each untraced invocation measures for.
    pub seconds: u64,
    /// Run the traced mode (per-layer metrics) instead.
    pub trace: bool,
    /// Where to write the summary as JSON, if anywhere.
    pub json: Option<PathBuf>,
}

/// Everything collected for one workload.
#[derive(Debug, Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
}

/// Runs the invocations, prints the summary table, and writes the JSON
/// summary if asked. Returns whether every run passed validation.
pub fn run(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let defs: &[Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut collected: Vec<Collected> = WORKLOADS.iter().map(|_| Collected::default()).collect();
    // Workloads interleave so slow drift of the host spreads over all.
    for i in 0..opts.repeat {
        for (workload, into) in WORKLOADS.iter().zip(&mut collected) {
            let seed = opts.seed + i;
            let output = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed} failed: {}",
                    workload.name,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let line = stdout.lines().last().unwrap_or_default();
            absorb(into, defs, line).map_err(|e| format!("{} seed {seed}: {e}", workload.name))?;
            eprintln!("{} seed {seed}: done", workload.name);
        }
    }
    print_table(opts, defs, &collected);
    if let Some(path) = &opts.json {
        let text = summary_json(opts, defs, &collected).encode();
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(collected.iter().all(|c| c.failed == 0))
}

/// Adds one result line's numbers to `into`.
fn absorb(into: &mut Collected, defs: &[Metric], line: &str) -> Result<(), String> {
    let result = parse(line)?;
    let number = |json: Option<&Json>| match json {
        Some(Json::UInt(v)) => Some(*v as f64),
        Some(Json::Int(v)) => Some(*v as f64),
        Some(Json::Float(v)) => Some(*v),
        _ => None,
    };
    into.attempted += number(field(&result, "attempted")).ok_or("no attempted count")? as u64;
    into.failed += number(field(&result, "failed")).ok_or("no failed count")? as u64;
    let metrics = field(&result, "metrics").ok_or("no metrics")?;
    for def in defs {
        let value = number(field(metrics, def.name).and_then(|m| field(m, "value")))
            .ok_or_else(|| format!("no value for {}", def.name))?;
        into.values
            .entry(def.name.to_string())
            .or_default()
            .push(value);
    }
    Ok(())
}

/// `(median, q1, q3, spread)` where spread is `(q3 - q1) / |median|`.
fn summarize(values: &[f64]) -> (f64, f64, f64, f64) {
    let mid = median(values);
    let (q1, q3) = quartiles(values);
    let spread = if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    };
    (mid, q1, q3, spread)
}

fn print_table(opts: &Options, defs: &[Metric], collected: &[Collected]) {
    println!(
        "{} invocation(s) per workload, seeds {}..={}, {} mode",
        opts.repeat,
        opts.seed,
        opts.seed + opts.repeat.saturating_sub(1),
        if opts.trace { "traced" } else { "untraced" }
    );
    println!(
        "{:<20} {:<36} {:<8} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, c) in WORKLOADS.iter().zip(collected) {
        for def in defs {
            let (mid, q1, q3, spread) = summarize(&c.values[def.name]);
            let (bound, note) = match def.bound {
                Some(b) => (format!("{b}"), if spread > b { "  unresolved" } else { "" }),
                None => ("-".into(), ""),
            };
            println!(
                "{:<20} {:<36} {:<8} {mid:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}{note}",
                workload.name, def.name, def.unit
            );
        }
        println!(
            "{:<20} {:<36} {:<8} {:>14.6}   ({} of {} runs failed)",
            workload.name,
            "failed_run_share",
            "ratio",
            c.failed as f64 / c.attempted.max(1) as f64,
            c.failed,
            c.attempted
        );
    }
}

fn summary_json(opts: &Options, defs: &[Metric], collected: &[Collected]) -> Json {
    let workloads = WORKLOADS.iter().zip(collected).map(|(workload, c)| {
        let metrics = defs.iter().map(|def| {
            let values = &c.values[def.name];
            let (mid, q1, q3, spread) = summarize(values);
            (
                def.name,
                Json::obj([
                    ("unit", Json::from(def.unit)),
                    ("median", Json::from(mid)),
                    ("q1", Json::from(q1)),
                    ("q3", Json::from(q3)),
                    ("spread", Json::from(spread)),
                    ("values", Json::arr(values.iter().map(|&v| Json::from(v)))),
                ]),
            )
        });
        (
            workload.name,
            Json::obj([
                ("flags", Json::from(workload.flags)),
                ("digest", Json::from(format!("{:#018x}", workload.digest))),
                ("attempted", Json::from(c.attempted)),
                ("failed", Json::from(c.failed)),
                ("metrics", Json::obj(metrics)),
            ]),
        )
    });
    Json::obj([
        ("digest_seed", Json::from(DEFAULT_SEED)),
        ("seed", Json::from(opts.seed)),
        ("repeat", Json::from(opts.repeat)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::from(opts.trace)),
        ("workloads", Json::obj(workloads)),
    ])
}
