#!/usr/bin/env bash
# Docs drift check: every operator registered in src/tofu/tdl/ops_*.cc must be documented
# in docs/tdl.md (as a backticked `name`), and every partition-algorithm name returned by
# AlgorithmName (src/tofu/core/session.cc) must appear in both docs/serving.md and
# docs/api.md, and every backticked CamelCase identifier in docs/memory.md,
# docs/pipeline.md and docs/cost_model.md must exist under src/, tools/ or bench/. Run from
# anywhere; exits non-zero listing the drift. CI runs this on every push (see
# .github/workflows/ci.yml).
set -u
repo="$(cd "$(dirname "$0")/.." && pwd)"
doc="$repo/docs/tdl.md"

if [[ ! -f "$doc" ]]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi

# Registration idioms: `xx.name = "op";` for hand-rolled OpTypeInfo, and
# `RegisterElementwise(registry, "op", arity)` for the element-wise family.
ops=$(
  {
    grep -hoE '\.name = "[a-z0-9_]+"' "$repo"/src/tofu/tdl/ops_*.cc |
      sed -E 's/.*"([a-z0-9_]+)"/\1/'
    grep -hoE 'RegisterElementwise\(registry, "[a-z0-9_]+"' "$repo"/src/tofu/tdl/ops_*.cc |
      sed -E 's/.*"([a-z0-9_]+)"?/\1/'
  } | sort -u
)

if [[ -z "$ops" ]]; then
  echo "check_docs: found no registered ops under src/tofu/tdl/ -- pattern drift?" >&2
  exit 1
fi

missing=0
total=0
for op in $ops; do
  total=$((total + 1))
  if ! grep -q "\`$op\`" "$doc"; then
    echo "check_docs: op '$op' is registered but not documented in docs/tdl.md" >&2
    missing=$((missing + 1))
  fi
done

if [[ $missing -gt 0 ]]; then
  echo "check_docs: $missing of $total registered ops missing from docs/tdl.md" >&2
  exit 1
fi
echo "check_docs: all $total registered ops documented in docs/tdl.md"

# Every algorithm name AlgorithmName can return must be documented in the serving
# protocol doc and the session API doc (both carry an algorithm table).
session_cc="$repo/src/tofu/core/session.cc"
algos=$(
  sed -n '/AlgorithmName(PartitionAlgorithm/,/^}/p' "$session_cc" |
    grep -oE 'return "[A-Za-z0-9-]+"' | sed -E 's/return "(.+)"/\1/' |
    grep -v '^?$' | sort -u
)

if [[ -z "$algos" ]]; then
  echo "check_docs: found no algorithm names in $session_cc -- pattern drift?" >&2
  exit 1
fi

algo_missing=0
algo_total=0
for algo in $algos; do
  algo_total=$((algo_total + 1))
  for adoc in "$repo/docs/serving.md" "$repo/docs/api.md"; do
    if ! grep -q "$algo" "$adoc"; then
      echo "check_docs: algorithm '$algo' is not documented in ${adoc#"$repo"/}" >&2
      algo_missing=$((algo_missing + 1))
    fi
  done
done

if [[ $algo_missing -gt 0 ]]; then
  echo "check_docs: $algo_missing algorithm doc entries missing" >&2
  exit 1
fi
echo "check_docs: all $algo_total algorithm names documented in docs/serving.md and docs/api.md"

# The memory-planner doc must exist and be cross-linked from the docs that reference
# its machinery: search (the repair pass runs inside the search), cost model (swap and
# recompute pricing), and the session API (MemorySchedule in plan JSON + responses).
memdoc="$repo/docs/memory.md"
if [[ ! -f "$memdoc" ]]; then
  echo "check_docs: missing $memdoc (memory-planner doc)" >&2
  exit 1
fi

link_missing=0
for ldoc in "$repo/docs/search.md" "$repo/docs/cost_model.md" "$repo/docs/api.md"; do
  if ! grep -q 'memory\.md' "$ldoc"; then
    echo "check_docs: ${ldoc#"$repo"/} does not link to docs/memory.md" >&2
    link_missing=$((link_missing + 1))
  fi
done
if [[ $link_missing -gt 0 ]]; then
  echo "check_docs: $link_missing docs missing the memory.md cross-link" >&2
  exit 1
fi
echo "check_docs: docs/memory.md present and cross-linked from search, cost_model, api"

# Every backticked CamelCase identifier in the memory, pipeline and cost-model docs
# (`PeakProfile`, `ShardKernelSeconds(...)`, ...) must still name something under src/,
# tools/ or bench/, so a deleted or renamed interface cannot linger in the docs.
ident_missing=0
ident_total=0
for idoc in "$repo/docs/memory.md" "$repo/docs/pipeline.md" "$repo/docs/cost_model.md"; do
  idents=$(
    grep -oE '`[^`]+`' "$idoc" | tr -d '`' |
      grep -oE '^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*[A-Z][A-Za-z0-9]*' | sort -u
  )
  for ident in $idents; do
    ident_total=$((ident_total + 1))
    if ! grep -rqwF -- "$ident" "$repo/src" "$repo/tools" "$repo/bench"; then
      echo "check_docs: ${idoc#"$repo"/} names \`$ident\`, found nowhere under src/, tools/ or bench/" >&2
      ident_missing=$((ident_missing + 1))
    fi
  done
done
if [[ $ident_total -eq 0 ]]; then
  echo "check_docs: found no backticked identifiers in the memory/pipeline/cost_model docs -- pattern drift?" >&2
  exit 1
fi
if [[ $ident_missing -gt 0 ]]; then
  echo "check_docs: $ident_missing stale identifiers in the memory/pipeline/cost_model docs" >&2
  exit 1
fi
echo "check_docs: all $ident_total backticked identifiers in memory/pipeline/cost_model docs exist in the code"
