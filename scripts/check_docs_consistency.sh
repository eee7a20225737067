#!/usr/bin/env bash
# Docs-consistency check (CI): the user-facing docs must keep up with the
# code.  Two sources of truth are extracted from the sources and every
# token must appear in README.md or DESIGN.md:
#
#   1. Every field of core::SearchConfig (src/core/types.h) — the README
#      "Configuration" section documents each knob.
#   2. Every metrics counter/summary registered in src/ or tools/ — the
#      README metrics glossary documents each name.  bench/-local metrics
#      (bench.*) are out of scope: they are bench implementation detail.
#   3. Every field of core::DefragConfig (src/core/defrag.h),
#      sim::LifecycleConfig (src/sim/lifecycle.h), and core::ShardConfig
#      (src/core/shard_router.h) — the lifecycle/defragmentation and shard
#      docs document each knob.
#   4. Every flag bench_lifecycle and bench_shard declare themselves
#      (beyond the common bench flags) — the README lists them.
#   5. The reverse of 2: every "| `name` | counter" or "| `name` | summary"
#      row of the README glossary names a metric registered in src/ or
#      tools/, so a deleted metric cannot leave a stale row behind.
#   6. The reverse of 1: every row of the README "Configuration" table
#      names a core::SearchConfig field, so a deleted knob cannot leave a
#      stale row behind.
#   7. Every --flag named in the README "Command-line tool" section or in
#      the "Configuration" intro paragraph is declared by an args.add_*
#      call in tools/ostro_cli.cpp, so a deleted CLI flag cannot stay
#      documented.
#
# Exits non-zero listing every undocumented token or stale row, so a PR
# adding a config knob or a counter without documenting it, or deleting a
# knob or a metric without its row, fails CI.  An extraction that finds
# nothing fails with its own "extraction failure" message: each grep below
# is guarded with `|| true`, because under pipefail a grep that matches
# nothing would otherwise abort the script silently.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md)
status=0

check() {
  local kind="$1" token="$2"
  if ! grep -qF -- "$token" "${docs[@]}"; then
    echo "UNDOCUMENTED $kind: '$token' (not found in ${docs[*]})" >&2
    status=1
  fi
}

config_fields=$(sed -n '/^struct SearchConfig {/,/^};/p' src/core/types.h |
  { grep -E '^\s+[A-Za-z_][A-Za-z0-9_:]*\s+[a-z_][a-z0-9_]*\s*=' || true; } |
  sed -E 's/^\s*\S+\s+([a-z_][a-z0-9_]*)\s*=.*/\1/' | sort -u)
if [[ -z "$config_fields" ]]; then
  echo "extraction failure: no SearchConfig fields found in src/core/types.h" >&2
  exit 1
fi
for field in $config_fields; do
  check "SearchConfig field" "$field"
done

struct_fields() {
  local file="$1" name="$2"
  sed -n "/^struct $name {/,/^};/p" "$file" |
    { grep -E '^\s+[A-Za-z_][A-Za-z0-9_:]*\s+[a-z_][a-z0-9_]*\s*(=|;)' || true; } |
    sed -E 's/^\s*\S+\s+([a-z_][a-z0-9_]*)\s*(=|;).*/\1/' | sort -u
}

for spec in "src/core/defrag.h DefragConfig" "src/sim/lifecycle.h LifecycleConfig" \
            "src/core/shard_router.h ShardConfig"; do
  read -r file name <<<"$spec"
  fields=$(struct_fields "$file" "$name")
  if [[ -z "$fields" ]]; then
    echo "extraction failure: no $name fields found in $file" >&2
    exit 1
  fi
  for field in $fields; do
    check "$name field" "$field"
  done
done

for bench in bench_lifecycle bench_shard; do
  bench_flags=$( { grep -hoE 'args\.add_(int|double|flag)\("[a-z-]+"' \
      "bench/$bench.cpp" || true; } | sed -E 's/.*\("([a-z-]+)".*/\1/' | sort -u)
  if [[ -z "$bench_flags" ]]; then
    echo "extraction failure: no flags found in bench/$bench.cpp" >&2
    exit 1
  fi
  for flag in $bench_flags; do
    check "$bench flag" "--$flag"
  done
done

metric_names=$( { grep -rhoE '(counter|summary)\("[a-z_.]+"\)' src tools || true; } |
  sed -E 's/.*\("([a-z_.]+)"\).*/\1/' | sort -u)
if [[ -z "$metric_names" ]]; then
  echo "extraction failure: no metrics registrations found in src/ tools/" >&2
  exit 1
fi
for name in $metric_names; do
  check "metrics name" "$name"
done

glossary_names=$( { grep -oE '^\| `[a-z_.]+` \| (counter|summary) ' README.md || true; } |
  sed -E 's/^\| `([a-z_.]+)`.*/\1/' | sort -u)
if [[ -z "$glossary_names" ]]; then
  echo "extraction failure: no metrics glossary rows found in README.md" >&2
  exit 1
fi
for name in $glossary_names; do
  if ! grep -qxF -- "$name" <<<"$metric_names"; then
    echo "STALE glossary row: '$name' (no counter/summary registered in" \
         "src/ or tools/)" >&2
    status=1
  fi
done

config_rows=$(awk '/^## Configuration$/ { in_section = 1; next }
                  in_section && /^#/ { exit }
                  in_section' README.md |
  { grep -oE '^\| `[a-z_]+` \|' || true; } | sed -E 's/^\| `([a-z_]+)`.*/\1/' | sort -u)
if [[ -z "$config_rows" ]]; then
  echo "extraction failure: no Configuration table rows found in README.md" >&2
  exit 1
fi
for name in $config_rows; do
  if ! grep -qxF -- "$name" <<<"$config_fields"; then
    echo "STALE Configuration row: '$name' (no core::SearchConfig field)" >&2
    status=1
  fi
done

cli_flags=$( { grep -oE 'args\.add_(string|int|double|flag)\("[a-z-]+"' \
    tools/ostro_cli.cpp || true; } | sed -E 's/.*\("([a-z-]+)".*/\1/' | sort -u)
if [[ -z "$cli_flags" ]]; then
  echo "extraction failure: no flags found in tools/ostro_cli.cpp" >&2
  exit 1
fi
readme_flags=$( {
    awk '/^## Command-line tool$/ { in_section = 1; next }
         in_section && /^#/ { exit }
         in_section' README.md
    awk '/^## Configuration$/ { in_section = 1; next }
         in_section && /^\|/ { exit }
         in_section' README.md
  } | { grep -oE -- '--[a-z][a-z-]*' || true; } | sed 's/^--//' | sort -u)
if [[ -z "$readme_flags" ]]; then
  echo "extraction failure: no --flags found in README.md's Command-line" \
       "tool section or Configuration intro" >&2
  exit 1
fi
for flag in $readme_flags; do
  if ! grep -qxF -- "$flag" <<<"$cli_flags"; then
    echo "STALE README flag: '--$flag' (not declared in tools/ostro_cli.cpp)" >&2
    status=1
  fi
done

if [[ "$status" -eq 0 ]]; then
  count_fields=$(wc -w <<<"$config_fields")
  count_metrics=$(wc -w <<<"$metric_names")
  count_rows=$(wc -w <<<"$glossary_names")
  count_config_rows=$(wc -w <<<"$config_rows")
  count_flags=$(wc -w <<<"$readme_flags")
  echo "docs consistent: $count_fields SearchConfig fields and" \
       "$count_metrics metrics names all documented; $count_rows glossary" \
       "rows all registered; $count_config_rows Configuration rows all" \
       "SearchConfig fields; $count_flags README CLI flags all declared"
fi
exit "$status"
