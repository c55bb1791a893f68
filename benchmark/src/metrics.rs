//! Metric definitions (the source `BENCHMARK.json` must agree with, which
//! `tests/package.rs` checks) and the result line every invocation ends
//! with.

use crate::validate::Tally;
use iadm_bench::json::Json;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one invocation measures for unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// What a user of `iadm sweep` sees, measured with tracing off. The
/// throughput bounds are far wider than a quiet machine needs: on a
/// shared two-core host, slow spells lasting minutes stretch every
/// repetition of an invocation alike (CPU time grows with wall time, so
/// the time is lost to contention, not descheduling). Ten invocations
/// spread by 4-18% of the median between their quartiles, and by up to
/// 40% when a spell halves throughput. Peak memory spreads by up to 3.4%
/// where two workers split the runs differently each time.
pub const END_TO_END: [Metric; 4] = [
    e2e("runs_per_s", "runs/s", "higher", 0.25),
    e2e("sim_pkts_per_s", "pkts/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics of the traced run, named by module.
pub const PER_LAYER: [Metric; 43] = [
    layer("sweep.spec.expand_ms", "ms", "lower"),
    layer("sweep.bases.shared_ms", "ms", "lower"),
    layer("sweep.bases.realize_us_per_run", "us", "lower"),
    layer("sweep.bases.shared_run_share", "ratio", "higher"),
    layer("fault.timeline.us_per_run", "us", "lower"),
    layer("sim.setup.us_per_run", "us", "lower"),
    layer("sim.setup.share", "ratio", "lower"),
    layer("sim.step.ns_per_cycle", "ns", "lower"),
    layer("sim.step.ns_per_hop", "ns", "lower"),
    layer("sim.step.share", "ratio", "lower"),
    layer("sim.finish.us_per_run", "us", "lower"),
    layer("sim.finish.share", "ratio", "lower"),
    layer("sweep.report.fragment_us", "us", "lower"),
    layer("bench.json.validate_ms", "ms", "lower"),
    layer("count.artifact_bytes", "bytes", "lower"),
    layer("sweep.executor.parallel_efficiency", "ratio", "higher"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("core.lut.entry_ns", "ns", "lower"),
    layer("core.candidates.ns", "ns", "lower"),
    layer("core.reroute.tag_ns", "ns", "lower"),
    layer("core.lut.refresh_switch_ns", "ns", "lower"),
    layer("sim.queue.push_pop_ns", "ns", "lower"),
    layer("sim.reservation.grant_release_ns", "ns", "lower"),
    layer("rng.bernoulli_ns", "ns", "lower"),
    layer("attr.decide_share", "ratio", "lower"),
    layer("attr.queue_share", "ratio", "lower"),
    layer("attr.reservation_share", "ratio", "lower"),
    layer("attr.arrivals_share", "ratio", "lower"),
    layer("count.runs", "count", "higher"),
    layer("count.cycles", "count", "higher"),
    layer("count.hops", "count", "higher"),
    layer("count.injected", "count", "higher"),
    layer("count.delivered", "count", "higher"),
    layer("count.dropped", "count", "lower"),
    layer("count.refused", "count", "lower"),
    layer("count.reroutes", "count", "lower"),
    layer("count.fault_events", "count", "lower"),
    layer("count.retags_on_repair", "count", "lower"),
    layer("count.flits_delivered", "count", "higher"),
    layer("count.requests_completed", "count", "higher"),
    layer("sim.useful_hop_ratio", "ratio", "higher"),
    layer("sim.arrival_hit_ratio", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// The last line of an invocation's standard output: validation totals
/// and exactly the metrics of `defs`, each with its unit.
///
/// # Errors
///
/// When `values` lacks a metric of `defs` or holds one `defs` does not
/// define.
pub fn result_line(
    tally: Tally,
    defs: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("measured an undefined metric {extra}"));
    }
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            Ok((
                def.name,
                Json::obj([
                    ("value", Json::from(*value)),
                    ("unit", Json::from(def.unit)),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj([
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_defined_metrics() {
        let tally = Tally {
            attempted: 4,
            failed: 0,
            delivered: 9,
        };
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(tally, &END_TO_END, &values).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        values.insert("sim.step.share", 0.5);
        assert!(result_line(tally, &END_TO_END, &values).is_err());
        values.remove("sim.step.share");
        values.remove("setup_s");
        assert!(result_line(tally, &END_TO_END, &values).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
