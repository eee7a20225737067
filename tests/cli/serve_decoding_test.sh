#!/bin/sh
# End-to-end check of `ostro serve`'s request decoding.  Five request lines:
#   1. 100,000 nested '[': the JSON depth limit rejects it;
#   2. a "template" path naming a FIFO: rejected without opening it, since
#      opening a FIFO blocks until a writer appears and would stall the
#      reader, so that no later request is read;
#   3. a valid inline one-VM stack: committed, its search not truncated;
#   4. a "template" path that does not exist: rejected as not found;
#   5. a sparse 65 MiB template file: rejected, over the 64 MiB limit,
#      without being read.
# The answers must come in that order and serve must exit 0.  serve runs
# under `timeout`, so a hang fails the test instead of stalling it.
#
# Usage: serve_decoding_test.sh OSTRO_BINARY DATACENTER_JSON
set -eu
ostro=$1
datacenter=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

mkfifo "$work/template.fifo"
truncate -s 65M "$work/huge.json"
{
  printf '%100000s\n' '' | tr ' ' '['
  printf '{"id": "fifo", "template": "%s"}\n' "$work/template.fifo"
  printf '%s\n' '{"id": "inline", "stack": {"resources": {"vm": {"type": "OS::Nova::Server", "properties": {"flavor": {"vcpus": 1, "ram_gb": 1}}}}}}'
  printf '{"id": "missing", "template": "%s"}\n' "$work/missing.json"
  printf '{"id": "huge", "template": "%s"}\n' "$work/huge.json"
} > "$work/requests.ndjson"

status=0
timeout 60 "$ostro" serve --datacenter "$datacenter" \
  --in "$work/requests.ndjson" --results "$work/results.ndjson" || status=$?
echo "--- answers"
cat "$work/results.ndjson"
[ "$status" -eq 0 ] || fail "serve exited $status (124: timed out)"

[ "$(wc -l < "$work/results.ndjson")" -eq 5 ] || fail "expected 5 answers"
# expect N TEXT...: answer N contains every TEXT.
expect() {
  n=$1
  shift
  answer=$(sed -n "${n}p" "$work/results.ndjson")
  for want in "$@"; do
    case $answer in
      *"$want"*) ;;
      *) fail "answer $n lacks '$want'" ;;
    esac
  done
}
expect 1 '"id":"req-0"' '"status":"rejected"' 'nesting deeper'
expect 2 '"id":"fifo"' '"status":"rejected"' "$work/template.fifo"
expect 3 '"id":"inline"' '"status":"committed"' '"truncated":false' \
  '"hit_open_limit":false'
expect 4 '"id":"missing"' '"status":"rejected"' "$work/missing.json" \
  'No such file'
expect 5 '"id":"huge"' '"status":"rejected"' "$work/huge.json" \
  'over the 67108864 limit'
echo "OK"
