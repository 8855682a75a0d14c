#!/bin/sh
# Regenerate every artifact of the reproduction from scratch.
#
# 1. (optional) rebuild the NPN-4 database; the SAT phase is budgeted —
#    give it more seconds for more proven entries.
# 2. re-enumerate the NPN-5 table (every class of at most four gates,
#    about a minute; the rewrite is byte for byte),
# 3. run the test-suite,
# 4. regenerate all tables/figures (benchmarks/results/*.txt).
#
# Usage: sh tools/reproduce_all.sh [db-sat-seconds]
set -e
cd "$(dirname "$0")/.."
SAT_SECONDS="${1:-0}"
if [ "$SAT_SECONDS" -gt 0 ]; then
    python -m repro.database.generate --out src/repro/database/data/npn4.jsonl \
        --sat-seconds "$SAT_SECONDS" --budget 60000
fi
python -m repro.exact.bounds
python -m pytest tests/ -q
python -m pytest benchmarks/ --benchmark-only -q -s
echo "results written to benchmarks/results/"
