#!/bin/sh
# losynthd crash-recovery smoke test (also run by CI): boot a daemon with a
# write-ahead journal, submit async work, SIGKILL the process mid-flight,
# then boot a second daemon on the same journal + cache directories and
# assert nothing was lost and nothing runs twice -- the replayed backlog
# drains by itself and identical resubmissions are all served from the
# result cache (exactly-once at the cache-key level).
set -eu

BIN="$1"
SCRATCH="$(mktemp -d)"
PID=""
# A failed run must not leave the phase-1 daemon writing into the
# directory this removes.
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$SCRATCH"' EXIT
JOURNAL="$SCRATCH/journal"
CACHE="$SCRATCH/cache"
mkdir -p "$JOURNAL" "$CACHE"

# Report a failure with everything both daemons wrote, then exit 1.
fail() {
  echo "FAIL: $*" >&2
  for F in out1 err1 out2 err2; do
    echo "--- $F:" >&2
    cat "$SCRATCH/$F" >&2 2>/dev/null || echo "(not written)" >&2
  done
  exit 1
}

JOBS=""
for GBW in 41 42 43 44 45 46; do
  JOBS="$JOBS{\"op\":\"synthesize\",\"async\":true,\"case\":1,\"label\":\"r$GBW\",\"spec\":{\"gbw\":${GBW}e6}}
"
done

# --- Phase 1: submit through a FIFO (stdin stays open), then kill -9. ----
FIFO="$SCRATCH/in"
mkfifo "$FIFO"
OUT1="$SCRATCH/out1"
# Redirections open left to right, and opening the FIFO blocks until the
# writer below opens it.  Opening out1 first means it exists once that
# `exec 3>` returns; with the FIFO first, a loaded host could run the ack
# poll before the daemon's shell had created out1, and the poll's failed
# redirect ended the script under `set -e`.
"$BIN" --threads 1 --journal "$JOURNAL" --cache-dir "$CACHE" \
  > "$OUT1" 2> "$SCRATCH/err1" < "$FIFO" &
PID=$!
exec 3> "$FIFO"
printf '%s' "$JOBS" >&3

# Every async submission is acknowledged only after its journal append is
# durable, so once six acks are out the kill cannot lose a submission.
ACKED=0
for _ in $(seq 1 300); do
  ACKED=$(wc -l < "$OUT1")
  [ "$ACKED" -ge 6 ] && break
  sleep 0.1
done
[ "$ACKED" -ge 6 ] || fail "only $ACKED/6 submissions acknowledged before timeout"
kill -9 "$PID" 2>/dev/null || true
exec 3>&-
wait "$PID" 2>/dev/null || true
PID=""

for N in 1 2 3 4 5 6; do
  sed -n "${N}p" "$OUT1" | grep -q '"ok":true' || fail "submission $N was not accepted"
done

# --- Phase 2: reboot on the same directories and demand exactly-once. ----
printf '%s%s\n%s\n' "$JOBS" '{"op":"health"}' '{"op":"shutdown"}' \
  | sed 's/"async":true,//' \
  | "$BIN" --threads 1 --journal "$JOURNAL" --cache-dir "$CACHE" \
      > "$SCRATCH/out2" 2> "$SCRATCH/err2" \
  || fail "the rebooted daemon exited with status $?"
OUT2=$(cat "$SCRATCH/out2")

printf '%s\n' "$OUT2"
grep -q 'journal' "$SCRATCH/err2" || fail "reboot did not report journal replay"

[ "$(printf '%s\n' "$OUT2" | wc -l)" -eq 8 ] \
  || fail "expected 8 response lines from the rebooted daemon"
# The six resubmissions ran behind the replayed backlog: every one must be
# answered from the cache, proving no result was lost and no engine run
# was duplicated for an already-answered key.
for N in 1 2 3 4 5 6; do
  LINE=$(printf '%s\n' "$OUT2" | sed -n "${N}p")
  printf '%s\n' "$LINE" | grep -q '"ok":true' || fail "resubmission $N failed after recovery"
  printf '%s\n' "$LINE" | grep -q '"cache_hit":true' \
    || fail "resubmission $N re-ran the engine (result lost in recovery)"
done
HEALTH=$(printf '%s\n' "$OUT2" | sed -n 7p)
printf '%s\n' "$HEALTH" | grep -q '"enabled":true' \
  || fail "health does not report the journal as enabled"
printf '%s\n' "$HEALTH" | grep -q '"recovered_remaining":0' \
  || fail "recovered backlog did not drain"
# (A torn final record is legitimate here: the kill can land mid-append of
# a worker's started/finished record.  Replay truncates it either way.)
echo "losynthd recovery smoke OK"
