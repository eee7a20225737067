#!/bin/sh
# End-to-end check of `ostro serve`'s request decoding.  Seven request lines:
#   1. 100,000 nested '[': the JSON depth limit rejects it;
#   2. a "template" path naming a FIFO: rejected without opening it, since
#      opening a FIFO blocks until a writer appears and would stall the
#      reader, so that no later request is read;
#   3. a valid inline one-VM stack: committed, its search not truncated;
#   4. a "template" path that does not exist: rejected as not found;
#   5. a sparse 65 MiB template file: rejected, over the 64 MiB limit,
#      without being read;
#   6. a line of 64 MiB + 1 byte: rejected, over the same limit, and
#      skipped through its newline;
#   7. a valid inline one-VM stack: committed, so reading went on.  It
#      lands on the host answer 3 activated, so it activates none.
# The answers must come in that order, carry only documented fields, and
# serve must exit 0.  serve runs under `timeout`, so a hang fails the test
# instead of stalling it.
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
  head -c 67108865 "$work/huge.json" | tr '\0' x
  printf '\n'
  printf '%s\n' '{"id": "after-long", "stack": {"resources": {"vm": {"type": "OS::Nova::Server", "properties": {"flavor": {"vcpus": 1, "ram_gb": 1}}}}}}'
} > "$work/requests.ndjson"

status=0
timeout 60 "$ostro" serve --datacenter "$datacenter" \
  --in "$work/requests.ndjson" --results "$work/results.ndjson" || status=$?
echo "--- answers"
cat "$work/results.ndjson"
[ "$status" -eq 0 ] || fail "serve exited $status (124: timed out)"

[ "$(wc -l < "$work/results.ndjson")" -eq 7 ] || fail "expected 7 answers"
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
expect 3 '"id":"inline"' '"status":"committed"' '"new_active_hosts":1' \
  '"truncated":false' '"hit_open_limit":false'
expect 4 '"id":"missing"' '"status":"rejected"' "$work/missing.json" \
  'No such file'
expect 5 '"id":"huge"' '"status":"rejected"' "$work/huge.json" \
  'over the 67108864 limit'
expect 6 '"id":"req-5"' '"status":"rejected"' 'over the 67108864 limit'
expect 7 '"id":"after-long"' '"status":"committed"' '"new_active_hosts":0'
# Every answer field is one the README documents.
for key in $(grep -o '"[a-z_]*":' "$work/results.ndjson" | sort -u); do
  case $key in
    '"id":' | '"status":' | '"wait_seconds":' | '"conflicts":' | \
      '"retries":' | '"truncated":' | '"hit_open_limit":' | '"utility":' | \
      '"reserved_bandwidth_mbps":' | '"new_active_hosts":' | \
      '"commit_epoch":' | '"failure":') ;;
    *) fail "an answer carries the undocumented field $key" ;;
  esac
done
echo "OK"
