//! Command line of the campaign benchmark (run it through `run.sh`).
//!
//! ```text
//! iadm-benchmark --workload <name> [--seed S] [--seconds T] [--trace [0|1]]
//! iadm-benchmark spread [--seed S] [--repeat K] [--seconds T] [--trace [0|1]]
//!                       [--json <path>]
//! ```
//!
//! The first form is one invocation; its last output line is the JSON
//! result. The second runs every workload `K` times (seeds `S..S+K-1`) and
//! prints medians, quartiles and spreads; it exits 1 if any run failed
//! validation.

use iadm_benchmark::metrics::RUN_SECONDS;
use iadm_benchmark::workloads::{find, DEFAULT_SEED};
use iadm_benchmark::{spread, traced, untraced};
use std::process::ExitCode;

const USAGE: &str =
    "usage: iadm-benchmark --workload <name> [--seed S] [--seconds T] [--trace [0|1]]
       iadm-benchmark spread [--seed S] [--repeat K] [--seconds T] [--trace [0|1]] [--json <path>]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<bool, String> {
    let spread_mode = args.first().is_some_and(|a| a == "spread");
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut repeat = 10;
    let mut workload = None;
    let mut json = None;
    let mut words = args.iter().skip(usize::from(spread_mode)).peekable();
    while let Some(flag) = words.next() {
        if flag == "--trace" {
            // The value is optional: a bare `--trace` turns tracing on.
            trace = match words.next_if(|w| *w == "0" || *w == "1") {
                Some(value) => value == "1",
                None => true,
            };
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--seed" => seed = number()?,
            "--seconds" if number()? > 0 => seconds = number()?,
            "--repeat" if spread_mode && number()? > 0 => repeat = number()?,
            "--workload" if !spread_mode => workload = Some(find(value)?),
            "--json" if spread_mode => json = Some(value.into()),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    if spread_mode {
        return spread::run(&spread::Options {
            seed,
            repeat,
            seconds,
            trace,
            json,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    let line = if trace {
        traced(workload, seed)?
    } else {
        untraced(workload, seed, seconds as f64)?
    };
    println!("{line}");
    Ok(true)
}
