#!/bin/sh
# Snapshot smoke: prove that a soak killed mid-run and restored from its
# last checkpoint finishes byte-identical to the run that never stopped,
# and that the resumed audit trail shows no divergence from the straight one.
#
# Used by the CI smoke step (default scale) and the nightly long-soak
# variant. Knobs via environment:
#   POLICY  policy to soak                      (default multiclock)
#   OPS     ops per workload, empty = -quick default
#   EVERY   checkpoint cadence in ops           (default 2000)
#   CHAOS   fault spec "seed,rate", empty = off
#   TIERS   -tiers hierarchy spec, empty = the default DRAM/PM pair
#   RACE    non-empty = build the binaries with -race
set -eu

POLICY="${POLICY:-multiclock}"
EVERY="${EVERY:-2000}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

BUILD=""
[ -n "${RACE:-}" ] && BUILD="-race"
go build $BUILD -o "$DIR/mcbench" ./cmd/mcbench
go build -o "$DIR/mcmetrics" ./cmd/mcmetrics

ARGS="-soak $POLICY -quick -seed 1"
[ -n "${OPS:-}" ] && ARGS="$ARGS -soak-ops $OPS"
[ -n "${CHAOS:-}" ] && ARGS="$ARGS -chaos $CHAOS"
[ -n "${TIERS:-}" ] && ARGS="$ARGS -tiers $TIERS"

# 1. The straight run, recording its own audit trail.
"$DIR/mcbench" $ARGS -audit "$DIR/straight.jsonl" -snapshot-every "$EVERY" \
    > "$DIR/straight.txt"

# 2. The checkpointed run, killed once checkpoints start landing.
"$DIR/mcbench" $ARGS -snapshot "$DIR/run.mcsnap" -audit "$DIR/resumed.jsonl" \
    -snapshot-every "$EVERY" > "$DIR/partial.txt" &
PID=$!
while [ ! -s "$DIR/run.mcsnap" ]; do
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "run finished before the kill; lower EVERY or raise OPS" >&2
        exit 1
    fi
    sleep 0.05
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# 3. Restore from the last checkpoint and run to completion: the final
#    report must match the straight run byte for byte.
"$DIR/mcbench" $ARGS -restore "$DIR/run.mcsnap" -snapshot "$DIR/run.mcsnap" \
    -audit "$DIR/resumed.jsonl" -snapshot-every "$EVERY" > "$DIR/resumed.txt"
cmp "$DIR/straight.txt" "$DIR/resumed.txt"

# 4. The reconciled-and-continued audit trail must be identical too.
"$DIR/mcmetrics" diverge "$DIR/straight.jsonl" "$DIR/resumed.jsonl"
cmp "$DIR/straight.jsonl" "$DIR/resumed.jsonl"

echo "snapshot smoke OK: killed+restored $POLICY soak is byte-identical to the straight run"
