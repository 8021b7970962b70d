#!/bin/sh
# Snapshot smoke: prove that an mcsim run of the paper's YCSB sequence killed
# mid-run and restored from its last checkpoint finishes byte-identical to
# the run that never stopped, and that the resumed audit trail shows no
# divergence from the straight one.
#
# Used by the CI smoke step (default scale) and the nightly long-soak
# variant. Knobs via environment:
#   POLICY  policy to run                       (default multiclock)
#   OPS     ops per workload                    (default 120000)
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
go build $BUILD -o "$DIR/mcsim" ./cmd/mcsim
go build -o "$DIR/mcmetrics" ./cmd/mcmetrics

# The experiments' -quick scale over the paper sequence.
ARGS="-policy $POLICY -sequence -records 16000 -ops ${OPS:-120000} -dram 1024 -pm 8192 -interval 10ms -seed 1"
[ -n "${CHAOS:-}" ] && ARGS="$ARGS -chaos $CHAOS"
[ -n "${TIERS:-}" ] && ARGS="$ARGS -tiers $TIERS"

# 1. The straight run, recording its own audit trail.
"$DIR/mcsim" $ARGS -audit "$DIR/straight.jsonl" -snapshot-every "$EVERY" \
    > "$DIR/straight.txt"

# 2. The checkpointed run, killed once checkpoints start landing.
"$DIR/mcsim" $ARGS -snapshot "$DIR/run.mcsnap" -audit "$DIR/resumed.jsonl" \
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
# The report prints only at completion: output here means the kill came
# after the last checkpoint and the restore below would resume nothing.
if [ -s "$DIR/partial.txt" ]; then
    echo "run finished before the kill; lower EVERY or raise OPS" >&2
    exit 1
fi

# 3. Restore from the last checkpoint and run to completion: the final
#    report must match the straight run byte for byte.
"$DIR/mcsim" $ARGS -restore "$DIR/run.mcsnap" -snapshot "$DIR/run.mcsnap" \
    -audit "$DIR/resumed.jsonl" -snapshot-every "$EVERY" > "$DIR/resumed.txt"
cmp "$DIR/straight.txt" "$DIR/resumed.txt"

# 4. The reconciled-and-continued audit trail must be identical too.
"$DIR/mcmetrics" diverge "$DIR/straight.jsonl" "$DIR/resumed.jsonl"
cmp "$DIR/straight.jsonl" "$DIR/resumed.jsonl"

echo "snapshot smoke OK: killed+restored $POLICY run is byte-identical to the straight run"
