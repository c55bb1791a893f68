//! The untraced end-to-end path: a campaign streamed through the real
//! executor into a journal file and an artifact file, the way
//! `iadm sweep --journal <j> --out <a>` runs it, then validated.

use crate::validate::{validate_campaign, Tally};
use crate::workloads::Campaign;
use iadm_sweep::{
    artifact_prefix, build_shared_bases, journal_header, stream_campaign, ARTIFACT_SUFFIX,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// One streamed campaign: its wall time and what validation found.
#[derive(Debug, Clone)]
pub struct Streamed {
    /// Wall time from creating the output files to the flushed artifact.
    pub wall: Duration,
    /// Validation result over every run.
    pub tally: Tally,
    /// The artifact text (no trailing newline).
    pub artifact: String,
}

/// Times the campaign's set-up as the executor performs it before its
/// pool starts: grid expansion and the shared-bases build.
pub fn time_setup(campaign: &Campaign) -> Result<Duration, String> {
    let started = Instant::now();
    let runs = campaign.spec.expand()?;
    let bases = build_shared_bases(&runs);
    let elapsed = started.elapsed();
    std::hint::black_box((&runs, &bases));
    Ok(elapsed)
}

/// The bytes one streamed range of a campaign wrote.
#[derive(Debug, Clone, Default)]
pub struct Part {
    /// Wall time from creating the output files to flushing them.
    pub wall: Duration,
    /// This range's share of the artifact file.
    pub artifact: String,
    /// This range's share of the journal file.
    pub journal: String,
}

impl Part {
    /// Appends the next range's part.
    pub fn extend(&mut self, next: Part) {
        self.wall += next.wall;
        self.artifact += &next.artifact;
        self.journal += &next.journal;
    }
}

/// Streams runs `range` of `campaign` on `threads` workers into a journal
/// and an artifact under `dir`, times it, and reads both back. The range
/// writes exactly its share of the files a whole-campaign stream writes
/// (the journal header with the first run, the artifact prefix and suffix
/// with the first and last), so the parts of consecutive ranges
/// concatenate to the whole campaign's files.
pub fn stream_part(
    campaign: &Campaign,
    threads: usize,
    range: Range<usize>,
    dir: &Path,
) -> Result<Part, String> {
    let spec = &campaign.spec;
    let total = spec.grid_len();
    let stem = dir.join(format!("campaign-{}", std::process::id()));
    let journal_path = stem.with_extension("jnl");
    let artifact_path = stem.with_extension("json");
    let io = |what: &Path| {
        let what = what.display().to_string();
        move |e: std::io::Error| format!("{what}: {e}")
    };
    let (first_run, last_run) = (range.start == 0, range.end == total);

    let started = Instant::now();
    let mut journal = File::create(&journal_path).map_err(io(&journal_path))?;
    let mut artifact = BufWriter::new(File::create(&artifact_path).map_err(io(&artifact_path))?);
    if first_run {
        journal
            .write_all(format!("{}\n", journal_header(spec, total)).as_bytes())
            .map_err(io(&journal_path))?;
        artifact
            .write_all(artifact_prefix(&spec.name, spec.campaign_seed, total).as_bytes())
            .map_err(io(&artifact_path))?;
    }
    let first = Cell::new(first_run);
    stream_campaign(
        spec,
        threads,
        range,
        &HashMap::new(),
        &mut |_, fragment| {
            journal
                .write_all(fragment.as_bytes())
                .and_then(|()| journal.write_all(b"\n"))
                .map_err(io(&journal_path))
        },
        &mut |_, fragment| {
            if !first.replace(false) {
                artifact.write_all(b",").map_err(io(&artifact_path))?;
            }
            artifact
                .write_all(fragment.as_bytes())
                .map_err(io(&artifact_path))
        },
    )?;
    if last_run {
        artifact
            .write_all(ARTIFACT_SUFFIX.as_bytes())
            .and_then(|()| artifact.write_all(b"\n"))
            .map_err(io(&artifact_path))?;
    }
    artifact.flush().map_err(io(&artifact_path))?;
    let wall = started.elapsed();
    drop((journal, artifact));

    let read = |path: &Path| std::fs::read_to_string(path).map_err(io(path));
    let part = Part {
        wall,
        artifact: read(&artifact_path)?,
        journal: read(&journal_path)?,
    };
    std::fs::remove_file(&artifact_path).map_err(io(&artifact_path))?;
    std::fs::remove_file(&journal_path).map_err(io(&journal_path))?;
    Ok(part)
}

/// Validates a whole campaign's concatenated parts (untimed). `digest`
/// is the expected artifact digest, if one is recorded.
pub fn validate_parts(campaign: &Campaign, whole: Part, digest: Option<u64>) -> Streamed {
    let spec = &campaign.spec;
    let mut artifact = whole.artifact;
    if artifact.ends_with('\n') {
        artifact.pop();
    }
    let tally = validate_campaign(spec, spec.grid_len(), &artifact, &whole.journal, digest);
    Streamed {
        wall: whole.wall,
        tally,
        artifact,
    }
}

/// Streams the whole campaign on `threads` workers (see [`stream_part`])
/// and validates what it wrote.
pub fn stream_to_files(
    campaign: &Campaign,
    threads: usize,
    dir: &Path,
    digest: Option<u64>,
) -> Result<Streamed, String> {
    let whole = stream_part(campaign, threads, 0..campaign.spec.grid_len(), dir)?;
    Ok(validate_parts(campaign, whole, digest))
}
