#!/usr/bin/env bash
# Kick the tires: one smoke pass over every runtime surface, in release.
#
#     scripts/kick-tires.sh
#
# 1. `tables -- all`: every paper table and figure, with the asserts
#    inside the extension grids; then again into `head -n 1`, which a
#    closed stdout must end with exit code 0, not a panic.
# 2. Every example under examples/; each asserts its own numbers.
# 3. The `trace` CLI: record, replay and self-diff an S_6 run and the S_6
#    lattice allreduce (a partitioned trace, one owner per barrier
#    phase, whose per-phase stats the recorder's self-check replays),
#    then six corrupted logs that replay must refuse with exit code 2
#    (the last naming the line it damaged), and a replay into
#    `head -n 1` that must exit 0.
# 4. starbench: its self-tests, then one traced second of each workload
#    in BENCHMARK.json, whose result line must report a verified output.
#
# Stops at the first failure. The full measurement tier is
# `python3 starbench/spread.py`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tables -- all"
cargo run --release -q --offline -p sg-bench --bin tables -- all > /dev/null
cargo run --release -q --offline -p sg-bench --bin tables -- all | head -n 1 > /dev/null

for f in examples/*.rs; do
  e=$(basename "$f" .rs)
  echo "== example $e"
  cargo run --release -q --offline --example "$e" > /dev/null
done

echo "== trace: record, replay, self-diff, corrupted logs"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trace() { cargo run --release -q --offline -p sg-bench --bin trace -- "$@"; }
trace record "$tmp/s6.jsonl" --n 6 --seed 7
trace replay "$tmp/s6.jsonl" > /dev/null
trace replay "$tmp/s6.jsonl" | head -n 1 > /dev/null
trace diff "$tmp/s6.jsonl" "$tmp/s6.jsonl" --context 3
trace record "$tmp/ar6.jsonl" --allreduce --n 6
trace replay "$tmp/ar6.jsonl" > /dev/null
trace diff "$tmp/ar6.jsonl" "$tmp/ar6.jsonl" --context 3
# A header promising u64::MAX packets, an event at PE 3 000 000 000 and
# an event on generator 0 must be refused with code 2, not a panic (101)
# or an aborting allocation. So must the first forwarded event moved to
# another in-range generator (1 -> 2, any other -> 1), whose link does
# not lead to the PE the flit reached, packet 0 injected in round
# u32::MAX - 999, after it resolves (its latency would wrap), and the
# first delivered event moved to round 900, off its round's bracket (a
# replay that took it would report a makespan of 900).
sed '1s/"packets":[0-9]*/"packets":18446744073709551615/' "$tmp/s6.jsonl" > "$tmp/s6-packets.jsonl"
sed '0,/"pe":[0-9]*/s//"pe":3000000000/' "$tmp/s6.jsonl" > "$tmp/s6-pe.jsonl"
sed '0,/"gen":[0-9]*/s//"gen":0/' "$tmp/s6.jsonl" > "$tmp/s6-gen.jsonl"
sed -E '0,/"ev":"forwarded"/{/"ev":"forwarded"/{s/"gen":1,/"gen":2,/;t;s/"gen":[0-9]+/"gen":1/}}' \
  "$tmp/s6.jsonl" > "$tmp/s6-link.jsonl"
if cmp -s "$tmp/s6.jsonl" "$tmp/s6-link.jsonl"; then
  echo "the forwarded-generator corruption changed nothing" >&2
  exit 1
fi
sed '2s/"round":[0-9]*/"round":4294966296/' "$tmp/s6.jsonl" > "$tmp/s6-round.jsonl"
sed '0,/"ev":"delivered","round":[0-9]*/s//"ev":"delivered","round":900/' "$tmp/s6.jsonl" \
  > "$tmp/s6-bracket.jsonl"
if cmp -s "$tmp/s6.jsonl" "$tmp/s6-bracket.jsonl"; then
  echo "the delivery-round corruption changed nothing" >&2
  exit 1
fi
for f in "$tmp/s6-packets.jsonl" "$tmp/s6-pe.jsonl" "$tmp/s6-gen.jsonl" "$tmp/s6-link.jsonl" \
  "$tmp/s6-round.jsonl" "$tmp/s6-bracket.jsonl"; do
  code=0
  trace replay "$f" > /dev/null 2> "$tmp/refusal" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "trace replay $f exited $code, want 2" >&2
    exit 1
  fi
done
# The last refusal, the moved delivery's, names the line it stands on.
line=$(grep -n -m 1 '"ev":"delivered"' "$tmp/s6.jsonl" | cut -d: -f1)
if ! grep -q "line $line: " "$tmp/refusal"; then
  echo "the moved delivery's refusal does not name line $line: $(cat "$tmp/refusal")" >&2
  exit 1
fi

echo "== starbench: self-tests, one traced second per workload"
cargo test --release -q --offline --manifest-path starbench/Cargo.toml
workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  last=$(cargo run --release --quiet --offline --manifest-path starbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
  echo "$w: $last"
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "starbench $w did not report a verified output" >&2; exit 1 ;;
  esac
done

echo "kick-tires: every check passed"
