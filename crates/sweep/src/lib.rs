//! `iadm-sweep` — a deterministic multi-threaded experiment-campaign
//! engine.
//!
//! The paper's load-balancing and fault-tolerance claims live in a
//! four-dimensional space (offered load × network size × routing policy ×
//! fault scenario); running `Simulator::run()` once per point on one
//! thread does not scale to the campaign sizes the steady-state studies
//! (Anagnostopoulos et al., Stergiou's multi-lane MIN sweeps) run. This
//! crate turns a declarative [`SweepSpec`] grid into a run list and
//! executes it on a `std::thread` worker pool.
//!
//! # Determinism contract
//!
//! The campaign artifact is **byte-identical regardless of thread
//! count**. Two mechanisms guarantee it:
//!
//! 1. *Derived seeds, not shared streams.* Run `i` of a campaign seeded
//!    `S` simulates with seed `splitmix64_mix(S, i)` (and realizes its
//!    randomized fault scenario from a further derivation of that run
//!    seed), so no run ever observes another run's RNG draws — or the
//!    scheduling order of the workers. The engine and lane-arbitration
//!    label coordinates are factored out of `i` before mixing: runs
//!    differing only in those labels share a realization, and since no
//!    code reads either label they are the same run.
//! 2. *Ordered aggregation.* Workers return `(run_index, faults, stats)`
//!    triples; the collector re-orders them by run index before any
//!    aggregation or encoding, so the JSON writer sees the same sequence
//!    whether one worker ran everything or eight raced.
//!
//! `tests/determinism.rs` enforces the contract end-to-end (1, 2 and 8
//! worker threads must produce identical bytes).
//!
//! # Fleet scale
//!
//! Three mechanisms keep throughput and memory flat as campaigns grow:
//! immutable bases (blockage map + route table) built once per
//! `(size, scenario)` and shared across all matching runs
//! ([`build_shared_bases`], [`Simulator::with_shared_lut`]); a streaming
//! executor whose peak memory is the out-of-order reassembly window, not
//! the run count ([`stream_campaign`]); and contiguous shard ranges with
//! append-only progress journals that resume and merge deterministically
//! ([`shard_range`], [`parse_journal`], [`merge_fragments`]). The
//! streamed, sharded, or resumed artifact is byte-identical to the
//! in-memory one (`tests/resume.rs`).
//!
//! [`Simulator::with_shared_lut`]: iadm_sim::Simulator::with_shared_lut
//!
//! # Example
//!
//! ```
//! use iadm_sweep::{run_campaign, SweepSpec};
//!
//! let spec = SweepSpec::smoke();
//! let result = run_campaign(&spec, 2).unwrap();
//! assert_eq!(result.runs.len(), spec.grid_len());
//! assert!(result.runs.iter().all(|r| r.stats.is_conserved()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod report;
mod spec;
mod stream;

pub use engine::{
    build_shared_bases, execute_run, run_campaign, CampaignResult, RunBases, RunRecord,
    FAULT_SEED_STREAM, TIMELINE_SEED_STREAM, WORKLOAD_SEED_STREAM,
};
pub use report::{campaign_json, pivot_table, summary_table};
pub use spec::{
    arbitration_label, converge_label, engine_label, mode_label, parse_converge, parse_loads,
    parse_mode, parse_pattern, parse_policy, parse_scenario, parse_tag_repair, pattern_label,
    policy_label, tag_repair_label, validate_scenario, RunSpec, SweepSpec,
};
pub use stream::{
    artifact_prefix, journal_header, merge_fragments, parse_journal, shard_range, stream_campaign,
    union_fragments, StreamSummary, ARTIFACT_SUFFIX, JOURNAL_FORMAT,
};
