#!/bin/sh
# Journalled lostress soak (also run by CI): the basic fault plan's pinned
# simulated SIGKILL freezes the write-ahead journal under load, then a
# second daemon boots on the same journal + cache directories and must
# bring every acknowledged job to a terminal state without re-running a
# result that already survived on disk.  Passes only if lostress reports
# no violation AND the crash actually happened.
#
#   $ sh tools/lostress_journal_smoke.sh build/tools/lostress
set -eu

BIN="$1"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

STATUS=0
"$BIN" --seed 1 --faults basic --duration 2s --clients 4 \
    --cache-dir "$SCRATCH/cache" --journal-dir "$SCRATCH/journal" \
    > "$SCRATCH/report.json" 2> "$SCRATCH/err" || STATUS=$?
cat "$SCRATCH/err"
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL: lostress exited $STATUS" >&2
  exit 1
fi
if ! grep -q 'recovery: crashed=1 ' "$SCRATCH/err"; then
  echo "FAIL: the journal never froze, so no crash was recovered" >&2
  exit 1
fi
echo "lostress journal smoke OK"
