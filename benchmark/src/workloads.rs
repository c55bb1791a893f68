//! The five benchmark workloads, each written as the `iadm sweep` flags
//! that reproduce it, and the flag parser that turns them into a
//! [`SweepSpec`] exactly as the CLI does.

use iadm_sweep::{parse_loads, parse_mode, parse_pattern, parse_policy, parse_scenario, SweepSpec};

/// The campaign seed the recorded artifact digests belong to.
pub const DEFAULT_SEED: u64 = 11;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The `iadm sweep` flags of the campaign (without `--seed`).
    pub flags: &'static str,
    /// FNV-1a-64 digest of the campaign artifact at [`DEFAULT_SEED`].
    pub digest: u64,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// Every workload, in the order the spread tool runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fleet_short_n1024",
        flags: "--n 512,1024 --loads 0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10 \
                --policies fixed,ssdt,tsdt,random,dchoice:2 --patterns uniform,bitrev,hotspot:3 \
                --queues 2,4 --faults none,rand:1,rand:8,mtbf:2000:100,outage:32:20:60 \
                --cycles 64 --threads 2",
        digest: 0xecdc_4645_699e_8e8c,
        why: "3000 short runs at large N on 2 workers: per-run setup, stats fold, encoding and the executor dominate",
    },
    Workload {
        name: "saturated_sf_n1024",
        flags: "--n 1024 --loads 0.6 --policies fixed,ssdt,tsdt,dchoice:2 \
                --faults none,mtbf:4000:200 --cycles 800",
        digest: 0xe0cc_6034_4083_8b55,
        why: "the paper's load-balancing regime: dense store-and-forward queues, time almost all in Simulator::step",
    },
    Workload {
        name: "lowload_n8192",
        flags: "--n 8192 --loads 0.0001 --policies fixed,ssdt,tsdt \
                --faults none,outage:64:2000:4000 --cycles 20000",
        digest: 0xddee_1be3_41f8_1bba,
        why: "under one packet per cycle fabric-wide: per-cycle overhead (arrival trials, idle scans) and the largest footprint",
    },
    Workload {
        name: "wormhole_n1024",
        flags: "--n 1024 --loads 0.3,0.6 --policies ssdt,tsdt --modes wormhole:4:4 \
                --faults none,mtbf:4000:200 --cycles 500",
        digest: 0xf1ed_fbb7_85d4_3ed4,
        why: "the same kernel through the lane reservation table: grants, flit advances and worm teardown under churn",
    },
    Workload {
        name: "closed_loop_n1024",
        flags: "--n 1024 --policies ssdt,tsdt,dchoice:2:sticky \
                --workloads rr:all:32,flow:64:16:4,allreduce:all:64 \
                --faults none,mtbf:4000:200 --cycles 8000",
        digest: 0xca1d_a659_ee49_98ca,
        why: "deliveries drive injection (closed loop): the workload sources and delivery/loss hooks",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

/// A campaign and the executor threads it runs on.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The campaign, as `iadm sweep` would build it.
    pub spec: SweepSpec,
    /// Executor worker threads (`--threads`, default 1).
    pub threads: usize,
}

impl Workload {
    /// The campaign at campaign seed `seed`.
    pub fn campaign(&self, seed: u64) -> Result<Campaign, String> {
        parse_sweep_flags(self.flags, seed)
    }
}

/// Builds a campaign from `iadm sweep` flags the way the CLI does: the
/// CLI's default spec (named `custom`), each axis flag overriding its
/// axis, `--cycles` setting warm-up to a fifth, and a closed-loop
/// `--workloads` list collapsing the loads axis to `0.0` unless `--loads`
/// is given. Running `iadm sweep <flags> --seed <seed>` produces the same
/// artifact bytes.
pub fn parse_sweep_flags(flags: &str, seed: u64) -> Result<Campaign, String> {
    let mut spec = SweepSpec {
        name: "custom".into(),
        sizes: vec![8],
        loads: vec![0.5],
        queue_capacities: vec![4],
        policies: vec![iadm_sim::RoutingPolicy::SsdtBalance],
        patterns: vec![iadm_sim::TrafficPattern::Uniform],
        modes: vec![iadm_sim::SwitchingMode::StoreForward],
        workloads: vec![iadm_sim::WorkloadSpec::OpenLoop],
        arbitrations: vec![iadm_sim::LaneArbitration::FirstFree],
        tag_repairs: vec![iadm_sim::TagRepair::Aware],
        engines: vec![iadm_sim::EngineKind::Synchronous],
        scenarios: vec![iadm_fault::scenario::ScenarioSpec::None],
        cycles: 2000,
        warmup: 400,
        converge: None,
        campaign_seed: seed,
    };
    let mut threads = 1;
    let mut loads_given = false;
    let words: Vec<&str> = flags.split_whitespace().collect();
    if !words.len().is_multiple_of(2) {
        return Err(format!("flags must come in --flag value pairs: {flags}"));
    }
    fn list<T>(text: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        text.split(',').map(|x| parse(x.trim())).collect()
    }
    let number = |text: &str| {
        text.parse::<usize>()
            .map_err(|_| format!("bad number {text}"))
    };
    for pair in words.chunks(2) {
        let (flag, value) = (pair[0], pair[1]);
        match flag {
            "--n" => spec.sizes = list(value, number)?,
            "--loads" => {
                spec.loads = parse_loads(value)?;
                loads_given = true;
            }
            "--queues" => spec.queue_capacities = list(value, number)?,
            "--policies" => spec.policies = list(value, parse_policy)?,
            "--patterns" => spec.patterns = list(value, parse_pattern)?,
            "--modes" => spec.modes = list(value, parse_mode)?,
            "--faults" => spec.scenarios = list(value, parse_scenario)?,
            "--workloads" => spec.workloads = list(value, iadm_sim::WorkloadSpec::parse)?,
            "--cycles" => {
                spec.cycles = number(value)?;
                spec.warmup = spec.cycles / 5;
            }
            "--threads" => threads = number(value)?,
            other => return Err(format!("unsupported sweep flag {other}")),
        }
    }
    if spec.workloads.iter().any(|w| w.is_closed()) && !loads_given {
        spec.loads = vec![0.0];
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(Campaign { spec, threads })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_expands_to_its_documented_run_count() {
        let expected = [
            ("fleet_short_n1024", 3000, 2),
            ("saturated_sf_n1024", 8, 1),
            ("lowload_n8192", 6, 1),
            ("wormhole_n1024", 8, 1),
            ("closed_loop_n1024", 18, 1),
        ];
        for (name, runs, threads) in expected {
            let campaign = find(name).unwrap().campaign(DEFAULT_SEED).unwrap();
            assert_eq!(campaign.spec.expand().unwrap().len(), runs, "{name}");
            assert_eq!(campaign.threads, threads, "{name}");
            assert_eq!(campaign.spec.warmup, campaign.spec.cycles / 5, "{name}");
        }
    }

    #[test]
    fn closed_loop_workloads_collapse_the_loads_axis() {
        let campaign = find("closed_loop_n1024").unwrap().campaign(3).unwrap();
        assert_eq!(campaign.spec.loads, vec![0.0]);
        assert_eq!(campaign.spec.campaign_seed, 3);
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(parse_sweep_flags("--n", 1).is_err());
        assert!(parse_sweep_flags("--bogus 1", 1).is_err());
        assert!(parse_sweep_flags("--threads 0", 1).is_err());
        assert!(parse_sweep_flags("--policies nope", 1).is_err());
        assert!(find("nope").is_err());
    }
}
