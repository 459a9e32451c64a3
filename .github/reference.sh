#!/usr/bin/env bash
# Regenerates every artifact under the byte-identity contract into DIR
# and prints their SHA-256 digests, with paths relative to DIR. Run it
# from the repository root after `cargo build --release`; CI compares
# the output with the committed digests:
#
#   bash .github/reference.sh /tmp/ref | diff REFERENCE.sha256 -
#
# A change that moves artifact bytes on purpose (a schema bump)
# regenerates the digests in the same diff:
#
#   bash .github/reference.sh /tmp/ref > REFERENCE.sha256
set -euo pipefail
export LC_ALL=C
if [ $# -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
bin=$PWD/target/release
mkdir -p "$1"
cd "$1"

grid() {
  local out=$1
  shift
  "$bin/sweep" "$@" --quiet --out "$out" > /dev/null
}

grid default
grid spec --attacks none --workloads all --basics none,tagged,stride
grid leakage --attacks none --leakage all --defenses base,full --secrets 8 --trials 4 \
  --permutations 200 --bootstrap 100
grid attack --attacks fr,er,pp --cross-core both --defenses all --seeds 16
# The only grid whose attack cores run a basic prefetcher.
grid basics --attacks fr,er,pp --noise none,c3,c4,c3c4 --cross-core both --defenses all \
  --basics none,tagged,stride --seeds 2
grid trace --attacks fr --defenses base,full --trace --obs
# The only traced grid that models instruction fetch: every L1I lookup
# runs with the recorder armed.
grid wltrace --attacks none --workloads 554.roms_r --defenses base,full --basics none,tagged \
  --trace --obs
# obs.json's `timing` section is wall-clock; only `counters` is contracted.
for d in trace wltrace; do
  sed -n '/"counters"/,/^  }/p' $d/obs.json > $d/counters
done
mkdir -p repro
(cd repro && "$bin/repro" all > stdout)

sha256sum default/sweep.* spec/sweep.* leakage/sweep.* leakage/leakage.* attack/sweep.* \
  basics/sweep.* trace/trace.jsonl trace/counters wltrace/trace.jsonl wltrace/counters \
  repro/stdout repro/AUDIT.json
