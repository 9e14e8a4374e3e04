#!/usr/bin/env bash
# Run one benchmark workload from the root of a checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the obda server and the benchmark from source with dune, then runs
# the workload; the result is the last line of standard output.  Build
# output goes to standard error.  Scratch files go to perfbench/_work.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[$i]}" == "--workload" ]]; then workload="${args[$((i + 1))]:-}"; fi
done

dune build --root . ./bin/obda.exe ./perfbench/bench.exe 1>&2

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
digest=$(find lib bin -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) -print0 \
  | LC_ALL=C sort -z | xargs -0 cat | md5sum | cut -c1-12)

work="perfbench/_work/${workload:-none}"
rm -rf "$work"
mkdir -p "$work"
status=0
_build/default/perfbench/bench.exe "$@" --obda _build/default/bin/obda.exe \
  --work "$work" --git-rev "$rev" --src-digest "$digest" || status=$?
# keep only the span file of the last traced run of each workload
find "$work" -mindepth 1 -maxdepth 1 ! -name 'spans-*.tsv' -exec rm -rf {} +
exit $status
