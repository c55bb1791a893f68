//! Replay fidelity: the traced replay rebuilds every run through the
//! crates' public functions, copying the sweep executor's private per-run
//! builder chain. If that chain changes and the copy does not, the traced
//! per-layer numbers would describe a different program; this test
//! catches the drift as an artifact byte difference.
//!
//! Each workload is shrunk (same axes, two loads, 40 cycles) so the test
//! runs in seconds, and streamed through the real executor at its thread
//! count into files, exactly as the untraced benchmark does.

use iadm_benchmark::campaign::{stream_part, stream_to_files, validate_parts};
use iadm_benchmark::trace::{Replayer, Tracer};
use iadm_benchmark::workloads::{Campaign, WORKLOADS};
use std::path::Path;

const CYCLES: usize = 40;

/// `campaign` with its horizon cut to [`CYCLES`] and, for open loops, its
/// loads axis cut to two points ending at its highest load.
fn shrink(mut campaign: Campaign) -> Campaign {
    let spec = &mut campaign.spec;
    spec.cycles = CYCLES;
    spec.warmup = CYCLES / 5;
    let top = spec.loads.iter().copied().fold(0.0, f64::max);
    if top > 0.0 {
        spec.loads = vec![top / 2.0, top];
    }
    campaign
}

#[test]
fn the_replayed_artifact_is_the_executors_byte_for_byte() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for workload in WORKLOADS {
        let campaign = shrink(workload.campaign(5).expect("workload parses"));
        let streamed = stream_to_files(&campaign, campaign.threads, &dir, None)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        assert_eq!(streamed.tally.failed, 0, "{}", workload.name);
        assert_eq!(streamed.tally.attempted as usize, campaign.spec.grid_len());

        // Streamed and replayed in two ranges each, as a traced invocation
        // alternates them chunk by chunk.
        let total = campaign.spec.grid_len();
        let stream = |range| {
            stream_part(&campaign, campaign.threads, range, &dir)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name))
        };
        let mut parts = stream(0..total / 2);
        parts.extend(stream(total / 2..total));
        let chunked = validate_parts(&campaign, parts, None);
        assert_eq!(chunked.tally.failed, 0, "{}", workload.name);
        assert!(
            chunked.artifact == streamed.artifact,
            "{}: streaming in parts changed the artifact",
            workload.name
        );

        let mut tracer = Tracer::default();
        let root = tracer.open("replay", None, None);
        let mut replayer = Replayer::new(&campaign.spec, &mut tracer, root)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        replayer.replay(0..total / 2, &mut tracer, root);
        replayer.replay(total / 2..total, &mut tracer, root);
        tracer.close(root);
        assert_eq!(replayer.counts.runs as usize, total);
        assert!(
            replayer.artifact() == streamed.artifact,
            "{}: the replay drifted from the executor",
            workload.name
        );
    }
}
