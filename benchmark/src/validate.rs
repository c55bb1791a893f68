//! The correctness gate: every campaign the benchmark times is checked
//! run by run before its runs count.
//!
//! A run fails when its statistics break packet conservation, report a
//! misrouted packet, break flit conservation (wormhole runs) or break the
//! request ledger `issued == completed + aborted + live` (closed-loop
//! runs). Every run of a campaign fails when its artifact is malformed:
//! the journal does not reassemble to the artifact's exact bytes, a
//! fragment does not round-trip through the JSON parser, or — at the
//! default seed — the artifact digest differs from the recorded one.

use iadm_bench::json::{assert_round_trip, Json};
use iadm_sweep::{merge_fragments, parse_journal, SweepSpec};

/// FNV-1a-64 of `bytes`: the artifact digest recorded per workload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What validating one campaign artifact found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// Packets delivered, summed over the runs.
    pub delivered: u64,
}

impl Tally {
    /// Adds another campaign's tally to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.delivered += other.delivered;
    }
}

/// Validates one campaign's output: `artifact` (without a trailing
/// newline) and the `journal` written beside it. `digest` is the expected
/// artifact digest, when one is recorded for this campaign seed.
pub fn validate_campaign(
    spec: &SweepSpec,
    run_count: usize,
    artifact: &str,
    journal: &str,
    digest: Option<u64>,
) -> Tally {
    let all_failed = Tally {
        attempted: run_count as u64,
        failed: run_count as u64,
        delivered: 0,
    };
    if digest.is_some_and(|d| d != fnv1a64(artifact.as_bytes())) {
        return all_failed;
    }
    let Ok(fragments) = parse_journal(journal, spec, run_count) else {
        return all_failed;
    };
    if merge_fragments(spec, run_count, &fragments).as_deref() != Ok(artifact) {
        return all_failed;
    }
    let mut tally = Tally {
        attempted: run_count as u64,
        ..Tally::default()
    };
    for index in 0..run_count {
        match assert_round_trip(&fragments[&index]).map(|run| check_run(&run)) {
            Ok(Some(delivered)) => tally.delivered += delivered,
            _ => tally.failed += 1,
        }
    }
    tally
}

/// Checks one run fragment's invariants; returns its delivered count, or
/// `None` when an invariant fails or a required field is missing.
fn check_run(run: &Json) -> Option<u64> {
    let stats = field(run, "stats")?;
    let get = |key: &str| match field(stats, key) {
        Some(Json::UInt(v)) => Some(*v),
        _ => None,
    };
    // Conditional blocks are absent when they do not apply (store-and-
    // forward runs carry no flit ledger, open-loop runs no requests).
    let optional = |key: &str| field(stats, key).map_or(Some(0), |_| get(key));
    let delivered = get("delivered")?;
    let packets_conserved =
        get("injected")? == delivered + get("dropped")? + get("refused")? + get("in_flight")?;
    let flits_conserved = optional("flits_injected")?
        == optional("flits_delivered")?
            + optional("flits_dropped")?
            + optional("flits_refused")?
            + optional("flits_in_flight")?;
    let requests_conserved = optional("requests_issued")?
        == optional("requests_completed")?
            + optional("requests_aborted")?
            + optional("requests_live")?;
    (packets_conserved && flits_conserved && requests_conserved && get("misrouted")? == 0)
        .then_some(delivered)
}

/// Looks up `key` in a JSON object.
pub fn field<'j>(json: &'j Json, key: &str) -> Option<&'j Json> {
    match json {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_sweep::{artifact_prefix, journal_header, stream_campaign, ARTIFACT_SUFFIX};
    use std::collections::HashMap;

    /// A small wormhole + churn campaign streamed in memory: `(spec,
    /// artifact, fragments in index order)`.
    fn campaign() -> (SweepSpec, String, Vec<String>) {
        let mut spec = SweepSpec::smoke();
        spec.modes = vec![
            iadm_sim::SwitchingMode::StoreForward,
            iadm_sim::SwitchingMode::Wormhole { flits: 2, lanes: 2 },
        ];
        let total = spec.grid_len();
        let mut fragments = Vec::new();
        stream_campaign(
            &spec,
            2,
            0..total,
            &HashMap::new(),
            &mut |_, _| Ok(()),
            &mut |_, fragment| {
                fragments.push(fragment.to_string());
                Ok(())
            },
        )
        .unwrap();
        let artifact = assemble(&spec, &fragments);
        (spec, artifact, fragments)
    }

    fn assemble(spec: &SweepSpec, fragments: &[String]) -> String {
        format!(
            "{}{}{ARTIFACT_SUFFIX}",
            artifact_prefix(&spec.name, spec.campaign_seed, fragments.len()),
            fragments.join(",")
        )
    }

    fn journal(spec: &SweepSpec, fragments: &[String]) -> String {
        let mut text = journal_header(spec, fragments.len());
        for fragment in fragments.iter().rev() {
            text.push('\n');
            text.push_str(fragment);
        }
        text
    }

    fn share(tally: Tally) -> f64 {
        tally.failed as f64 / tally.attempted as f64
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_clean_campaign_passes_every_run() {
        let (spec, artifact, fragments) = campaign();
        let digest = fnv1a64(artifact.as_bytes());
        let tally = validate_campaign(
            &spec,
            fragments.len(),
            &artifact,
            &journal(&spec, &fragments),
            Some(digest),
        );
        assert_eq!(tally.attempted, 16);
        assert_eq!(tally.failed, 0);
        assert!(tally.delivered > 0);
    }

    #[test]
    fn one_tampered_fragment_fails_every_run_at_the_recorded_digest() {
        let (spec, artifact, mut fragments) = campaign();
        let digest = fnv1a64(artifact.as_bytes());
        // A latency field changes the bytes but keeps every ledger
        // balanced: only the digest can catch it.
        fragments[3] = fragments[3].replacen("\"latency_max\":", "\"latency_max\":1", 1);
        let tampered = assemble(&spec, &fragments);
        let tally = validate_campaign(
            &spec,
            fragments.len(),
            &tampered,
            &journal(&spec, &fragments),
            Some(digest),
        );
        assert_eq!(share(tally), 1.0);
    }

    #[test]
    fn a_journal_that_disagrees_with_the_artifact_fails_every_run() {
        let (spec, artifact, mut fragments) = campaign();
        fragments[5] = fragments[5].replacen("\"latency_max\":", "\"latency_max\":1", 1);
        let tally = validate_campaign(
            &spec,
            fragments.len(),
            &artifact,
            &journal(&spec, &fragments),
            None,
        );
        assert_eq!(share(tally), 1.0);
    }

    #[test]
    fn one_unconserved_stats_record_raises_the_share() {
        // Run 0 is store-and-forward, run 2 wormhole.
        for (index, key) in [(0, "\"delivered\":"), (2, "\"flits_delivered\":")] {
            let (spec, _, mut fragments) = campaign();
            assert!(
                fragments[index].contains(key),
                "fragment {index} lacks {key}"
            );
            fragments[index] = fragments[index].replacen(key, &format!("{key}9"), 1);
            let artifact = assemble(&spec, &fragments);
            let tally = validate_campaign(
                &spec,
                fragments.len(),
                &artifact,
                &journal(&spec, &fragments),
                None,
            );
            assert_eq!(tally.failed, 1, "{key}");
            assert!(share(tally) > 0.0);
        }
    }
}
