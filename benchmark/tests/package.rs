//! Package guards: the benchmark builds from path dependencies alone,
//! measures the binary users build, and its manifest `BENCHMARK.json` and
//! recorded baseline agree with the definitions in the source.
//!
//! The repository's own hermeticity test scans `crates/*` only, so the
//! benchmark package carries its own.

use iadm_bench::json::{parse, Json};
use iadm_benchmark::metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use iadm_benchmark::validate::field;
use iadm_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    package_dir()
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of TOML table `[name]`, comments and blank
/// lines dropped.
fn table(toml: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn dependencies_are_path_only() {
    let manifest = read(&package_dir().join("Cargo.toml"));
    let mut count = 0;
    for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for line in table(&manifest, section) {
            assert!(
                line.contains("path = \"../crates/"),
                "not an in-tree path dependency: {line}"
            );
            count += 1;
        }
    }
    assert!(
        count > 0,
        "the benchmark must depend on the crates it measures"
    );
    let lock = read(&package_dir().join("Cargo.lock"));
    assert!(
        !lock.contains("source ="),
        "the lock file names a registry or git source"
    );
}

#[test]
fn release_profile_equals_the_root_workspace() {
    let ours = table(&read(&package_dir().join("Cargo.toml")), "profile.release");
    let root = table(&read(&repo_root().join("Cargo.toml")), "profile.release");
    assert!(
        !root.is_empty(),
        "the root manifest lost its release profile"
    );
    assert_eq!(ours, root);
}

fn metric(def: &Metric) -> Json {
    let mut fields = vec![
        ("name", Json::from(def.name)),
        ("unit", Json::from(def.unit)),
        ("better", Json::from(def.better)),
    ];
    if let Some(bound) = def.bound {
        fields.push(("bound", Json::from(bound)));
    }
    Json::obj(fields)
}

#[test]
fn benchmark_json_matches_the_source() {
    let expected =
        Json::obj([
            (
                "command",
                Json::arr(["bash", "benchmark/run.sh"].map(Json::from)),
            ),
            ("paths", Json::arr([Json::from("benchmark")])),
            ("run_seconds", Json::from(RUN_SECONDS)),
            (
                "workloads",
                Json::arr(WORKLOADS.iter().map(|w| {
                    Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])
                })),
            ),
            ("end_to_end", Json::arr(END_TO_END.iter().map(metric))),
            ("per_layer", Json::arr(PER_LAYER.iter().map(metric))),
        ]);
    let actual = parse(&read(&repo_root().join("BENCHMARK.json"))).expect("BENCHMARK.json parses");
    assert_eq!(actual, expected);
}

#[test]
fn setup_time_has_the_widest_bound() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is reported");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= setup.bound.unwrap(), "{}", m.name);
    }
}

#[test]
fn the_baseline_records_every_workload_at_its_digest() {
    let baseline = parse(&read(&package_dir().join("baseline.json"))).expect("baseline parses");
    let workloads = field(&baseline, "workloads").expect("baseline workloads");
    for w in WORKLOADS {
        let entry = field(workloads, w.name).unwrap_or_else(|| panic!("{} missing", w.name));
        let digest = Json::from(format!("{:#018x}", w.digest));
        assert_eq!(field(entry, "digest"), Some(&digest), "{}", w.name);
        assert_eq!(
            field(entry, "flags"),
            Some(&Json::from(w.flags)),
            "{}",
            w.name
        );
        assert_eq!(field(entry, "failed"), Some(&Json::UInt(0)), "{}", w.name);
        let metrics = field(entry, "metrics").expect("baseline metrics");
        for m in END_TO_END {
            assert!(
                field(metrics, m.name).is_some(),
                "{} lacks {}",
                w.name,
                m.name
            );
        }
    }
}
