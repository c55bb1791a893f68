#!/usr/bin/env sh
# Sweep-engine smoke test: run the tiny built-in `smoke` campaign (8 runs
# at N=8, ≤ 2 s end to end) on two worker threads and validate the JSON
# artifact. The CLI itself round-trips the document through the bench
# JSON parser (`iadm_bench::json::assert_round_trip`) before writing, so
# a successful exit certifies the artifact parses and re-encodes
# byte-identically; this script additionally checks the file landed and
# is non-trivial.
set -eu

cd "$(dirname "$0")/.."

out="$(mktemp /tmp/iadm_sweep_smoke.XXXXXX.json)"
trap 'rm -f "$out"' EXIT

cargo build --release --offline -p iadm-cli
./target/release/iadm-cli sweep --spec smoke --threads 2 --out "$out"

# The artifact must exist, be non-empty, and name the campaign.
[ -s "$out" ] || { echo "sweep_smoke: empty artifact $out" >&2; exit 1; }
grep -q '"campaign":"smoke"' "$out" || {
    echo "sweep_smoke: artifact missing campaign header" >&2
    exit 1
}
grep -q '"run_count":8' "$out" || {
    echo "sweep_smoke: expected 8 runs in the smoke campaign" >&2
    exit 1
}

echo "sweep_smoke: OK ($(wc -c < "$out") bytes)"

# Transient-fault smoke: a tiny mtbf campaign must run, label its
# scenario, and report degradation counters in the artifact.
mtbf_out="$(mktemp /tmp/iadm_sweep_mtbf.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out"' EXIT

./target/release/iadm-cli sweep --n 8 --loads 0.4 --policies ssdt,tsdt \
    --cycles 300 --faults none,mtbf:80:30 --threads 2 --out "$mtbf_out"

[ -s "$mtbf_out" ] || { echo "sweep_smoke: empty mtbf artifact" >&2; exit 1; }
grep -q '"scenario":"mtbf:80:30"' "$mtbf_out" || {
    echo "sweep_smoke: mtbf artifact missing the transient scenario label" >&2
    exit 1
}
grep -q '"fault_events":' "$mtbf_out" || {
    echo "sweep_smoke: mtbf runs reported no degradation stats" >&2
    exit 1
}

echo "sweep_smoke: mtbf OK ($(wc -c < "$mtbf_out") bytes)"

# Wormhole smoke: a tiny two-mode campaign must label its wormhole runs
# and report the flit ledger, while store-and-forward records stay free
# of any mode or flit fields (artifact back-compat).
wh_out="$(mktemp /tmp/iadm_sweep_wh.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out"' EXIT

./target/release/iadm-cli sweep --n 8 --loads 0.4 --policies ssdt \
    --cycles 300 --modes sf,wormhole:4 --faults none,mtbf:80:30 \
    --threads 2 --out "$wh_out"

[ -s "$wh_out" ] || { echo "sweep_smoke: empty wormhole artifact" >&2; exit 1; }
grep -q '"mode":"wormhole:4"' "$wh_out" || {
    echo "sweep_smoke: wormhole artifact missing the mode label" >&2
    exit 1
}
grep -q '"flits_in_flight":' "$wh_out" || {
    echo "sweep_smoke: wormhole runs reported no flit ledger" >&2
    exit 1
}
if grep -q '"mode":"sf"' "$wh_out"; then
    echo "sweep_smoke: store-and-forward runs must not carry a mode field" >&2
    exit 1
fi

echo "sweep_smoke: wormhole OK ($(wc -c < "$wh_out") bytes)"

# Lane smoke (E16-style row): a wormhole campaign across lanes ∈ {1,2,4}
# must label each lane count distinctly — the multi-lane axis is how the
# virtual-channel experiments scale, so all three labels must survive the
# artifact round-trip.
lanes_out="$(mktemp /tmp/iadm_sweep_lanes.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out" "$lanes_out"' EXIT

./target/release/iadm-cli sweep --n 8 --loads 0.4 --policies ssdt \
    --cycles 300 --modes wormhole:4,wormhole:4:2,wormhole:4:4 \
    --threads 2 --out "$lanes_out"

[ -s "$lanes_out" ] || { echo "sweep_smoke: empty lanes artifact" >&2; exit 1; }
for lane_mode in '"mode":"wormhole:4"' '"mode":"wormhole:4:2"' '"mode":"wormhole:4:4"'; do
    grep -q "$lane_mode" "$lanes_out" || {
        echo "sweep_smoke: lanes artifact missing $lane_mode" >&2
        exit 1
    }
done

echo "sweep_smoke: lanes {1,2,4} OK ($(wc -c < "$lanes_out") bytes)"

# Tag-repair smoke (E20-style row): a multi-lane campaign across the
# tag-repair axis must label only the non-default value — `aware` runs,
# like the default `first-free` arbitration label, stay bare, so every
# pre-existing artifact keeps its byte encoding (checked against the
# plain smoke artifact too). The arbitration labels E20 records are
# pinned by `--spec e20` in verify.sh and by crates/sweep/src/report.rs.
arb_out="$(mktemp /tmp/iadm_sweep_arb.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out" "$lanes_out" "$arb_out"' EXIT

./target/release/iadm-cli sweep --n 8 --loads 0.4 --policies tsdt \
    --cycles 300 --modes wormhole:4:2 --repairs aware,blind \
    --faults none,mtbf:80:30 --threads 2 --out "$arb_out"

[ -s "$arb_out" ] || { echo "sweep_smoke: empty tag-repair artifact" >&2; exit 1; }
for arb_label in '"tag_repair":"blind"'; do
    grep -q "$arb_label" "$arb_out" || {
        echo "sweep_smoke: tag-repair artifact missing $arb_label" >&2
        exit 1
    }
done
if grep -q '"arbitration":"first-free"' "$arb_out"; then
    echo "sweep_smoke: first-free runs must not carry an arbitration field" >&2
    exit 1
fi
if grep -q '"tag_repair":"aware"' "$arb_out"; then
    echo "sweep_smoke: repair-aware runs must not carry a tag_repair field" >&2
    exit 1
fi
if grep -q '"arbitration"' "$out" || grep -q '"tag_repair"' "$out"; then
    echo "sweep_smoke: default-axis smoke artifact must stay bare of the new fields" >&2
    exit 1
fi

echo "sweep_smoke: tag-repair OK ($(wc -c < "$arb_out") bytes)"

# Closed-loop smoke: a tiny request/response + flow campaign must label
# each workload and report the request-latency ledger (issued counts and
# p99) that only closed-loop runs emit.
wl_out="$(mktemp /tmp/iadm_sweep_wl.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out" "$lanes_out" "$arb_out" "$wl_out"' EXIT

./target/release/iadm-cli sweep --n 8 --policies ssdt,tsdt \
    --cycles 300 --workloads rr:all:8,flow:4:8:2 \
    --faults none,mtbf:80:30 --threads 2 --out "$wl_out"

[ -s "$wl_out" ] || { echo "sweep_smoke: empty closed-loop artifact" >&2; exit 1; }
grep -q '"workload":"rr:all:8"' "$wl_out" || {
    echo "sweep_smoke: closed-loop artifact missing the rr workload label" >&2
    exit 1
}
grep -q '"workload":"flow:4:8:2"' "$wl_out" || {
    echo "sweep_smoke: closed-loop artifact missing the flow workload label" >&2
    exit 1
}
grep -q '"requests_issued":' "$wl_out" || {
    echo "sweep_smoke: closed-loop runs reported no request ledger" >&2
    exit 1
}
grep -q '"request_latency_p99":' "$wl_out" || {
    echo "sweep_smoke: closed-loop runs reported no request-latency tail" >&2
    exit 1
}

echo "sweep_smoke: closed-loop OK ($(wc -c < "$wl_out") bytes)"

# D-choice + convergence smoke: a tiny campaign over both dchoice
# variants with a convergence recipe must label each policy, carry the
# run-level recipe, and report a steady-state stop (`converged_at_cycle`)
# for at least one run; fixed-horizon campaigns never emit either field.
dc_out="$(mktemp /tmp/iadm_sweep_dc.XXXXXX.json)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out" "$lanes_out" "$arb_out" "$wl_out" "$dc_out"' EXIT

./target/release/iadm-cli sweep --n 8 --loads 0.4 \
    --policies ssdt,dchoice:2,dchoice:2:sticky \
    --cycles 400 --converge 50:0.2 --threads 2 --out "$dc_out"

[ -s "$dc_out" ] || { echo "sweep_smoke: empty d-choice artifact" >&2; exit 1; }
for dc_policy in '"policy":"dchoice:2"' '"policy":"dchoice:2:sticky"'; do
    grep -q "$dc_policy" "$dc_out" || {
        echo "sweep_smoke: d-choice artifact missing $dc_policy" >&2
        exit 1
    }
done
grep -q '"converge":"50:0.2"' "$dc_out" || {
    echo "sweep_smoke: converging runs must carry the recipe label" >&2
    exit 1
}
grep -q '"converged_at_cycle":' "$dc_out" || {
    echo "sweep_smoke: no run reported a steady-state stop" >&2
    exit 1
}
if grep -q '"converge"' "$out"; then
    echo "sweep_smoke: fixed-horizon smoke artifact must not carry converge fields" >&2
    exit 1
fi

echo "sweep_smoke: d-choice+converge OK ($(wc -c < "$dc_out") bytes)"

# Strict flag hygiene: the CLI must reject unknown flags instead of
# silently ignoring them — a typo like --convergence must not produce a
# fixed-horizon artifact that looks like a converging one.
if ./target/release/iadm-cli sweep --n 8 --loads 0.4 --policies ssdt \
    --cycles 200 --convergence 50:0.2 --out /dev/null 2>/dev/null; then
    echo "sweep_smoke: CLI accepted the unknown flag --convergence" >&2
    exit 1
fi
if ./target/release/iadm-cli simulate --n 8 --cycles 200 \
    --policy dchoice:2 --window 50 2>/dev/null; then
    echo "sweep_smoke: CLI accepted the unknown flag --window" >&2
    exit 1
fi

echo "sweep_smoke: unknown-flag rejection OK"

# Shard-then-merge smoke: the same smoke campaign split across two shard
# processes (each writing a journal) and merged must be byte-identical to
# the single-process artifact — the distributed-execution contract.
shard_dir="$(mktemp -d /tmp/iadm_sweep_shard.XXXXXX)"
trap 'rm -f "$out" "$mtbf_out" "$wh_out" "$lanes_out" "$arb_out" "$wl_out" "$dc_out"; rm -rf "$shard_dir"' EXIT

./target/release/iadm-cli sweep --spec smoke --threads 2 \
    --shard 1/2 --journal "$shard_dir/s1.jnl"
./target/release/iadm-cli sweep --spec smoke --threads 2 \
    --shard 2/2 --journal "$shard_dir/s2.jnl"
./target/release/iadm-cli sweep --spec smoke \
    --merge "$shard_dir/s1.jnl,$shard_dir/s2.jnl" --out "$shard_dir/merged.json"

diff -q "$out" "$shard_dir/merged.json" || {
    echo "sweep_smoke: 2-shard merged artifact differs from the single-process artifact" >&2
    exit 1
}

echo "sweep_smoke: shard+merge OK ($(wc -c < "$shard_dir/merged.json") bytes)"

# Perf trajectory: the simulator benchmark must stay within tolerance of
# the checked-in BENCH_sim.json (see scripts/bench_gate.sh) AND of the
# best rate each configuration ever posted to results/bench_history.jsonl;
# each gate run appends its report to that history.
sh scripts/bench_gate.sh
