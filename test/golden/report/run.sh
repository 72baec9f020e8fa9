#!/usr/bin/env bash
# Byte-identity gate for the reporting paths: runs the bench and CLI
# commands that render flush counts, bench records and counter tables,
# and compares each command's stdout plus exit code, and the JSON
# artifact it writes, with the recorded files in this directory.
#
#   bash test/golden/report/run.sh [--update] [NAME...]
#
# With --update the files are rewritten instead of compared. NAMEs
# restrict the run to those entries. PREP_CLI=path/to/prep_cli.exe tests
# another build; bench/main.exe is taken from the same build tree. The
# profile entry's Chrome trace is large, so only its md5 is recorded
# (profile.trace.md5).
#
# ckptscale at one small size fails its size-scaling gate (exit 124);
# that verdict is part of the recording.
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
cli=${PREP_CLI:-$root/_build/default/bin/prep_cli.exe}
bench=$(dirname "$cli")/../bench/main.exe
update=0
if [ "${1:-}" = "--update" ]; then update=1; shift; fi

# name|binary|arguments|artifact the command writes (or empty)
entries=(
  "smoke|bench|smoke smoke.json|smoke.json"
  "persistgain|bench|persistgain persistgain.json|persistgain.json"
  "shardscale|bench|shardscale shardscale.json|shardscale.json"
  "loadcurve|bench|loadcurve loadcurve.json|loadcurve.json"
  "sweep|cli|sweep --json sweep.json|sweep.json"
  "run-flit|cli|run --system prep-durable --threads 4 --read-pct 50 --flit|"
  "profile|cli|profile --system prep-durable --threads 4 --read-pct 50 --trace trace.json|trace.json"
  "session|cli|session --ds hashmap --threads 4 --ops 40 --crashes 3 --sessions 2 --detect --json session.json|session.json"
  "ckptscale|cli|ckptscale --sizes 10000 --json ckptscale.json|ckptscale.json"
)

want() {
  [ ${#selected[@]} -eq 0 ] && return 0
  local n; for n in "${selected[@]}"; do [ "$n" = "$1" ] && return 0; done; return 1
}
# check RECORDED FRESH LABEL: diff, or copy under --update
check() {
  if [ $update -eq 1 ]; then
    cp "$2" "$1"; echo "updated $3"
  elif diff "$1" "$2" > "$work/diff"; then
    echo "ok $3"
  else
    echo "DIFF $3"; head -20 "$work/diff"; fail=1
  fi
}
selected=("$@")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0
for e in "${entries[@]}"; do
  IFS='|' read -r name which args artifact <<< "$e"
  want "$name" || continue
  case $which in bench) bin=$bench ;; *) bin=$cli ;; esac
  (cd "$work" && "$bin" $args 2>/dev/null) > "$work/$name.out"
  echo "exit $?" >> "$work/$name.out"
  check "$here/$name.out" "$work/$name.out" "$name"
  case $artifact in
    "") ;;
    trace.json)
      md5sum < "$work/trace.json" > "$work/trace.md5"
      check "$here/$name.trace.md5" "$work/trace.md5" "$name trace" ;;
    *) check "$here/$artifact" "$work/$artifact" "$name $artifact" ;;
  esac
done
exit $fail
