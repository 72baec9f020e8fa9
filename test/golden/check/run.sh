#!/usr/bin/env bash
# Byte-identity gate for the checkers: runs every `fuzz`, `explore` and
# `optimize-persist` invocation of .github/workflows/ci.yml and compares
# its stdout plus exit code with the recorded file in this directory
# (and optimize-persist's report with persist-report.json).
#
#   bash test/golden/check/run.sh [--update] [NAME...]
#
# With --update the files are rewritten instead of compared. NAMEs
# restrict the run to those entries (optimize-persist writes the policy
# the policy-* entries read, so run `optimize` first or include it).
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
bin=${PREP_CLI:-$root/_build/default/bin/prep_cli.exe}
update=0
if [ "${1:-}" = "--update" ]; then update=1; shift; fi

S1="--ds hashmap --threads 1 --ops 2 --epsilon 1 --log-size 16 --seed 6 --sockets 2 --cores 1"
P1="--ds hashmap --threads 1 --ops 1 --epsilon 1 --log-size 16 --seed 6 --sockets 2 --cores 1"
LSM="--lsm-ckpt --lsm-fanout 2 --max-schedules 100000"
UC2="--variant durable --ds hashmap --uc-shards 2 --no-persistence --threads 2 --ops 1 --seed 3"
SH4="--variant durable --shards 4 --multi-pct 40 --cross-pct 100 --iters 30 -j 2"

entries=(
  "fuzz-serial|fuzz --iters 50 --variant buffered --ops 150"
  "fuzz-j2|fuzz --iters 50 --variant buffered --ops 150 -j 2"
  "fuzz-flit|fuzz --iters 30 --variant durable --flit --ops 150"
  "fuzz-numa|fuzz --iters 30 --variant durable --flit --dist-rw --log-mirror --slot-bitmap --ops 150"
  "fuzz-detect|fuzz --iters 30 --variant durable --detect --ops 150"
  "explore-clean|explore --variant buffered $S1"
  "explore-early-boundary|explore --variant buffered $S1 --fault early-boundary"
  "explore-elide-ct-flush|explore --variant durable $S1 --fault elide-ct-flush"
  "explore-mirror-read-recovery|explore --variant durable $S1 --log-mirror --fault mirror-read-recovery"
  "explore-detect|explore --variant durable $S1 --detect"
  "explore-response-before-log-persist|explore --variant durable $S1 --detect --fault response-before-log-persist"
  "explore-sharded|explore --variant buffered $S1 --shards 4 -j 2"
  "explore-j1|explore --variant durable $S1 --detect --shards 4 -j 1"
  "explore-j4|explore --variant durable $S1 --detect --shards 4 -j 4"
  "explore-pruned|explore --variant buffered $P1"
  "explore-naive|explore --variant buffered $P1 --no-prune --max-schedules 38970"
  "fuzz-shard|fuzz $SH4"
  "fuzz-commit-before-prepare|fuzz $SH4 --fault commit-before-prepare"
  "explore-shard|explore $UC2"
  "explore-shard-split|explore $UC2 --shards 2 -j 2"
  "explore-commit-before-prepare|explore --variant durable --ds hashmap --uc-shards 2 --no-persistence --threads 1 --ops 2 --seed 1 --fault commit-before-prepare"
  "fuzz-lsm|fuzz --iters 30 --variant durable --lsm-ckpt --ops 150"
  "explore-lsm|explore --variant durable $S1 $LSM"
  "fuzz-manifest-before-seal|fuzz --variant durable --lsm-ckpt --iters 8 --epsilon 8 --ops 120 --seed 9400 --fault manifest-before-seal"
  "explore-manifest-before-seal|explore --variant durable $S1 $LSM --fault manifest-before-seal"
  "optimize|optimize-persist --variant durable $S1 --fuzz-iters 10 --out persist-policy.json --report persist-report.json"
  "explore-policy|explore --variant durable $S1 --persist-policy persist-policy.json"
  "fuzz-policy|fuzz --iters 30 --variant durable --ops 150 --persist-policy persist-policy.json"
  "explore-unsafe-policy|explore --variant durable $S1 --persist-policy prep.completed_tail=elide"
  "fuzz-unsafe-policy|fuzz --iters 40 --variant durable --ops 150 --persist-policy prep.completed_tail=elide"
)

# explore-shard-split has no file of its own: the oracle-split run must
# print exactly what the serial run prints.
golden_of() { case "$1" in explore-shard-split) echo explore-shard ;; *) echo "$1" ;; esac; }

want() {
  [ $# -eq 0 ] && return 0
  local n; for n in "${selected[@]}"; do [ "$n" = "$1" ] && return 0; done; return 1
}
selected=("$@")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0
for e in "${entries[@]}"; do
  name=${e%%|*}; args=${e#*|}
  if [ ${#selected[@]} -gt 0 ] && ! want "$name"; then continue; fi
  file="$here/$(golden_of "$name").out"
  (cd "$work" && "$bin" $args) > "$work/$name.out"
  echo "exit $?" >> "$work/$name.out"
  if [ $update -eq 1 ] && [ "$name" = "$(golden_of "$name")" ]; then
    cp "$work/$name.out" "$file"; echo "updated $name"
  elif diff "$file" "$work/$name.out" > "$work/$name.diff"; then
    echo "ok $name"
  else
    echo "DIFF $name"; head -20 "$work/$name.diff"; fail=1
  fi
  # optimize-persist's report carries the rejections' repro commands
  if [ "$name" = optimize ]; then
    if [ $update -eq 1 ]; then
      cp "$work/persist-report.json" "$here/persist-report.json"
    elif ! diff "$here/persist-report.json" "$work/persist-report.json"; then
      echo "DIFF persist-report.json"; fail=1
    fi
  fi
done
exit $fail
