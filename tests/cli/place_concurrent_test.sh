#!/bin/sh
# End-to-end check of `ostro place --service-threads`, the concurrent mode
# that routes copies of a stack through the shard router:
#   1. three concurrent copies from an idle cluster all commit;
#   2. one copy over a loaded --occupancy file writes the same occupancy
#      bytes as the serial `place --commit-out` from that file;
#   3. --shards 2 refuses an --occupancy file (exit 1).
# Every run is bounded by `timeout`, so a hang fails the test instead of
# stalling it.
#
# Usage: place_concurrent_test.sh OSTRO_BINARY DATACENTER_JSON TEMPLATE_JSON
set -eu
ostro=$1
datacenter=$2
template=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

place() {
  timeout 60 "$ostro" place --datacenter "$datacenter" --template "$template" \
    "$@"
}

# A loaded starting point: the serial placement of one stack.
place --out "$work/first.json" --commit-out "$work/occ1.json" > /dev/null ||
  fail "serial place from an idle cluster failed"

place --service-threads 3 > "$work/three.txt" ||
  fail "--service-threads 3 exited $?"
cat "$work/three.txt"
grep -q 'placed 3/3' "$work/three.txt" || fail "expected 'placed 3/3'"

place --occupancy "$work/occ1.json" --service-threads 1 \
  --commit-out "$work/a.json" > /dev/null ||
  fail "--occupancy with --service-threads 1 failed"
place --occupancy "$work/occ1.json" --out "$work/second.json" \
  --commit-out "$work/b.json" > /dev/null ||
  fail "serial place from the occupancy file failed"
cmp "$work/a.json" "$work/b.json" ||
  fail "concurrent and serial placements committed different occupancies"

status=0
place --shards 2 --occupancy "$work/occ1.json" --service-threads 1 \
  > /dev/null 2> "$work/refused.txt" || status=$?
cat "$work/refused.txt"
[ "$status" -eq 1 ] || fail "--shards 2 with --occupancy exited $status"
grep -q -- '--occupancy' "$work/refused.txt" ||
  fail "the refusal does not name --occupancy"
echo "OK"
