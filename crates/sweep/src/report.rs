//! Campaign artifacts: the byte-stable JSON document and human tables.

use crate::engine::{CampaignResult, RunRecord};
use crate::spec::{
    arbitration_label, converge_label, engine_label, mode_label, pattern_label, policy_label,
    tag_repair_label, RunSpec,
};
use iadm_bench::json::{sim_stats_json, Json};
use iadm_sim::{EngineKind, LaneArbitration, SimStats, SwitchingMode, TagRepair, WorkloadSpec};
use std::collections::HashMap;

/// The canonical JSON encoding of a campaign. Every run appears in run-
/// index order with its resolved parameters and full statistics (including
/// the latency histogram), so the document is byte-identical for any
/// worker-thread count — the determinism contract `tests/determinism.rs`
/// enforces.
pub fn campaign_json(result: &CampaignResult) -> Json {
    Json::obj([
        ("campaign", Json::from(result.name.as_str())),
        ("campaign_seed", Json::from(result.campaign_seed)),
        ("run_count", Json::from(result.runs.len())),
        (
            "runs",
            Json::arr(
                result
                    .runs
                    .iter()
                    .map(|r| run_json(&r.spec, r.faults, &r.stats)),
            ),
        ),
    ])
}

/// One run's JSON object. Takes the pieces rather than a [`RunRecord`]
/// so the streaming executor's workers — which ship `(index, faults,
/// stats)` and never materialize a record — can encode their own
/// fragments.
pub(crate) fn run_json(spec: &RunSpec, faults: usize, stats: &SimStats) -> Json {
    let mut fields = vec![
        ("index", Json::from(spec.index)),
        ("n", Json::from(spec.size.n())),
        ("load", Json::from(spec.offered_load)),
        ("queue", Json::from(spec.queue_capacity)),
        ("policy", Json::from(policy_label(spec.policy))),
        ("pattern", Json::from(pattern_label(&spec.pattern))),
    ];
    // Store-and-forward runs omit the mode field so every pre-wormhole
    // campaign artifact stays byte-identical.
    if spec.mode != SwitchingMode::StoreForward {
        fields.push(("mode", Json::from(mode_label(spec.mode).as_str())));
    }
    // First-free runs omit the arbitration field and repair-aware runs
    // the tag_repair field, keeping every pre-lane-arbitration artifact
    // byte-identical.
    if spec.arbitration != LaneArbitration::FirstFree {
        fields.push((
            "arbitration",
            Json::from(arbitration_label(spec.arbitration)),
        ));
    }
    if spec.tag_repair != TagRepair::Aware {
        fields.push(("tag_repair", Json::from(tag_repair_label(spec.tag_repair))));
    }
    // Likewise `sync`-labelled runs omit the engine field, keeping every
    // artifact without the engine axis byte-identical.
    if spec.engine != EngineKind::Synchronous {
        fields.push(("engine", Json::from(engine_label(spec.engine))));
    }
    // And open-loop runs omit the workload field, keeping every
    // pre-workload artifact byte-identical.
    if spec.workload != WorkloadSpec::OpenLoop {
        fields.push(("workload", Json::from(spec.workload.label())));
    }
    // And fixed-horizon runs omit the converge field, keeping every
    // pre-convergence artifact byte-identical. The stats block reports
    // the outcome (`converged_at_cycle`); this field records the recipe.
    if let Some((window, tol)) = spec.converge {
        fields.push(("converge", Json::from(converge_label(window, tol))));
    }
    fields.extend([
        ("scenario", Json::from(spec.scenario.label())),
        ("cycles", Json::from(spec.cycles)),
        ("warmup", Json::from(spec.warmup)),
        ("seed", Json::from(spec.seed)),
        ("faults", Json::from(faults)),
        ("stats", sim_stats_json(stats)),
    ]);
    Json::obj(fields)
}

/// A plain-text table with one row per run — the long form for logs.
pub fn summary_table(result: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5} {:>5} {:>5} {:<6} {:<8} {:<14} {:>7} {:>9} {:>10} {:>6} {:>6} {:>6} {:>7} {:>7}\n",
        "run",
        "N",
        "load",
        "policy",
        "pattern",
        "scenario",
        "faults",
        "delivered",
        "throughput",
        "mean",
        "p50",
        "p95",
        "p99",
        "lost"
    ));
    for record in &result.runs {
        let s = &record.stats;
        let spec = &record.spec;
        out.push_str(&format!(
            "{:>5} {:>5} {:>5} {:<6} {:<8} {:<14} {:>7} {:>9} {:>10.4} {:>6.2} {:>6} {:>6} {:>7} {:>7}\n",
            spec.index,
            spec.size.n(),
            spec.offered_load,
            policy_label(spec.policy),
            pattern_label(&spec.pattern),
            spec.scenario.label(),
            record.faults,
            s.delivered,
            s.throughput(),
            s.mean_latency(),
            s.percentile(0.50),
            s.percentile(0.95),
            s.percentile(0.99),
            s.dropped + s.refused,
        ));
    }
    out
}

/// A pivot table: one row per offered load, one column per
/// (policy, scenario) pair, cells computed by `metric`. This is the
/// compact form EXPERIMENTS.md embeds (e.g. `metric` = p99 latency).
///
/// One pass over the runs: rows key on the load's exact bit pattern
/// (never a lossy `format!` round-trip of an `f64`) and columns on the
/// (policy, scenario) label, both in first-appearance order; when the
/// grid maps several runs to one cell the first wins, matching the
/// run-index order the engine guarantees.
pub fn pivot_table(result: &CampaignResult, metric: &dyn Fn(&RunRecord) -> String) -> String {
    let mut loads: Vec<f64> = Vec::new();
    let mut row_of: HashMap<u64, usize> = HashMap::new();
    let mut columns: Vec<String> = Vec::new();
    let mut col_of: HashMap<String, usize> = HashMap::new();
    let mut cells: HashMap<(usize, usize), String> = HashMap::new();
    for record in &result.runs {
        let row = *row_of
            .entry(record.spec.offered_load.to_bits())
            .or_insert_with(|| {
                loads.push(record.spec.offered_load);
                loads.len() - 1
            });
        // Column label: policy, then any non-default mode/engine axis
        // values, then scenario — default-axis campaigns keep their old
        // labels.
        let mut parts = vec![policy_label(record.spec.policy)];
        if record.spec.mode != SwitchingMode::StoreForward {
            parts.push(mode_label(record.spec.mode));
        }
        if record.spec.arbitration != LaneArbitration::FirstFree {
            parts.push(arbitration_label(record.spec.arbitration).to_string());
        }
        if record.spec.tag_repair != TagRepair::Aware {
            parts.push(tag_repair_label(record.spec.tag_repair).to_string());
        }
        if record.spec.engine != EngineKind::Synchronous {
            parts.push(engine_label(record.spec.engine).to_string());
        }
        if record.spec.workload != WorkloadSpec::OpenLoop {
            parts.push(record.spec.workload.label());
        }
        parts.push(record.spec.scenario.label());
        let label = parts.join("/");
        let col = match col_of.get(&label) {
            Some(&col) => col,
            None => {
                columns.push(label.clone());
                col_of.insert(label, columns.len() - 1);
                columns.len() - 1
            }
        };
        cells.entry((row, col)).or_insert_with(|| metric(record));
    }
    let mut out = String::new();
    out.push_str(&format!("{:>6}", "load"));
    for column in &columns {
        out.push_str(&format!(" {column:>18}"));
    }
    out.push('\n');
    for (row, load) in loads.iter().enumerate() {
        out.push_str(&format!("{load:>6}"));
        for col in 0..columns.len() {
            let cell = cells.get(&(row, col)).map_or("-", String::as_str);
            out.push_str(&format!(" {cell:>18}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;
    use crate::spec::SweepSpec;
    use iadm_bench::json::assert_round_trip;

    #[test]
    fn campaign_json_round_trips_and_names_every_run() {
        let result = run_campaign(&SweepSpec::smoke(), 2).unwrap();
        let text = campaign_json(&result).encode();
        assert_round_trip(&text).expect("campaign JSON must round-trip");
        assert!(text.contains("\"campaign\":\"smoke\""));
        assert!(text.contains("\"run_count\":8"));
        assert!(text.contains("\"scenario\":\"double:S1:1\""));
        assert!(text.contains("\"latency_p99\":"));
    }

    #[test]
    fn wormhole_runs_carry_a_mode_field_and_flit_stats() {
        let mut spec = SweepSpec::smoke();
        spec.modes = vec![
            SwitchingMode::StoreForward,
            SwitchingMode::Wormhole { flits: 4, lanes: 1 },
        ];
        let result = run_campaign(&spec, 2).unwrap();
        let text = campaign_json(&result).encode();
        assert_round_trip(&text).expect("campaign JSON must round-trip");
        assert!(text.contains("\"mode\":\"wormhole:4\""));
        assert!(text.contains("\"flits_per_packet\":4"));
        // SF runs stay mode-free: the field count differs, never the
        // spelling of existing fields.
        assert!(!text.contains("\"mode\":\"sf\""));
        let pivot = pivot_table(&result, &|r| r.stats.delivered.to_string());
        assert!(pivot.contains("ssdt/wormhole:4/none"));
        assert!(pivot.contains("ssdt/none"));
    }

    #[test]
    fn event_runs_carry_an_engine_field_and_sync_runs_stay_bare() {
        let mut spec = SweepSpec::smoke();
        spec.engines = vec![
            iadm_sim::EngineKind::Synchronous,
            iadm_sim::EngineKind::EventDriven,
        ];
        let result = run_campaign(&spec, 2).unwrap();
        let text = campaign_json(&result).encode();
        assert_round_trip(&text).expect("campaign JSON must round-trip");
        assert!(text.contains("\"engine\":\"event\""));
        // Synchronous runs stay engine-free: the field count differs,
        // never the spelling of existing fields.
        assert!(!text.contains("\"engine\":\"sync\""));
        let pivot = pivot_table(&result, &|r| r.stats.delivered.to_string());
        assert!(pivot.contains("ssdt/event/none"));
        assert!(pivot.contains("ssdt/none"));
    }

    #[test]
    fn closed_loop_runs_carry_a_workload_field_and_open_loop_stays_bare() {
        let mut spec = SweepSpec::smoke();
        spec.loads = vec![0.0];
        spec.workloads = vec![WorkloadSpec::RequestResponse {
            clients: 0,
            think: 4,
            req: 1,
            resp: 1,
        }];
        let result = run_campaign(&spec, 2).unwrap();
        let text = campaign_json(&result).encode();
        assert_round_trip(&text).expect("campaign JSON must round-trip");
        assert!(text.contains("\"workload\":\"rr:all:4\""));
        assert!(text.contains("\"requests_issued\":"));
        assert!(text.contains("\"request_latency_p99\":"));
        let pivot = pivot_table(&result, &|r| r.stats.workload.percentile(0.99).to_string());
        assert!(pivot.contains("ssdt/rr:all:4/none"));

        // Open-loop runs stay workload-free: the field count differs,
        // never the spelling of existing fields.
        let open = campaign_json(&run_campaign(&SweepSpec::smoke(), 2).unwrap()).encode();
        assert!(!open.contains("\"workload\":"));
        assert!(!open.contains("\"requests_issued\":"));
    }

    #[test]
    fn converging_runs_carry_the_recipe_and_fixed_horizon_stays_bare() {
        let mut spec = SweepSpec::smoke();
        spec.converge = Some((50, 0.1));
        let result = run_campaign(&spec, 2).unwrap();
        let text = campaign_json(&result).encode();
        assert_round_trip(&text).expect("campaign JSON must round-trip");
        // Every run records the recipe; runs that actually stopped early
        // also record the outcome in their stats block.
        assert!(text.contains("\"converge\":\"50:0.1\""));
        assert!(text.contains("\"converged_at_cycle\":"));
        assert!(result
            .runs
            .iter()
            .any(|r| r.stats.converged_at_cycle > 0 && r.stats.cycles < 200));

        // Fixed-horizon runs stay converge-free: the field count differs,
        // never the spelling of existing fields.
        let bare = campaign_json(&run_campaign(&SweepSpec::smoke(), 2).unwrap()).encode();
        assert!(!bare.contains("\"converge\""));
        assert!(!bare.contains("\"converged_at_cycle\""));
    }

    #[test]
    fn tables_cover_every_run_and_load() {
        let result = run_campaign(&SweepSpec::smoke(), 2).unwrap();
        let long = summary_table(&result);
        assert_eq!(long.lines().count(), 1 + result.runs.len());
        let pivot = pivot_table(&result, &|r| r.stats.percentile(0.99).to_string());
        assert_eq!(pivot.lines().count(), 1 + 2, "two loads in the smoke spec");
        assert!(pivot.contains("ssdt/none"));
        assert!(pivot.contains("fixed/double:S1:1"));
    }

    #[test]
    fn pivot_takes_the_first_record_when_cells_collide() {
        // Duplicating the run list must not change a single cell: the
        // single-pass rewrite keeps the old `find()` first-match rule.
        let result = run_campaign(&SweepSpec::smoke(), 1).unwrap();
        let mut doubled = result.clone();
        doubled.runs.extend(result.runs.iter().cloned());
        assert_eq!(
            pivot_table(&doubled, &|r| r.spec.index.to_string()),
            pivot_table(&result, &|r| r.spec.index.to_string())
        );
    }
}
