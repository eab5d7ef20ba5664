#!/bin/sh
# lorouter kill-one-shard recovery smoke test (also run by CI): boot a
# router over three journalled losynthd shards, submit async work, SIGKILL
# the shard that owns the first job, then -- through the *same* router,
# which must absorb the death transparently -- resubmit everything and
# assert exactly-once at the cache-key level: every resubmission answers
# ok + cache_hit:true (the dead shard's backlog was replayed, not lost,
# and nothing ran twice), and cluster health shows the restart.
set -eu

ROUTER="$1"
WORKER="$2"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
JOURNALS="$SCRATCH/journals"
CACHE="$SCRATCH/cache"
mkdir -p "$JOURNALS" "$CACHE"

JOBS=""
for GBW in 51 52 53 54 55 56 57 58; do
  JOBS="$JOBS{\"op\":\"synthesize\",\"async\":true,\"case\":1,\"label\":\"c$GBW\",\"spec\":{\"gbw\":${GBW}e6}}
"
done

# --- Phase 1: boot the cluster, submit through a FIFO, probe health. -----
FIFO="$SCRATCH/in"
mkfifo "$FIFO"
OUT="$SCRATCH/out"
# Open the output before the FIFO: the FIFO open blocks until `exec 3>`
# below, so the output file exists by the time the poll reads it.
"$ROUTER" --worker "$WORKER" --shards 3 --threads 1 \
  --journal-root "$JOURNALS" --cache-dir "$CACHE" --request-timeout 120s \
  > "$OUT" 2> "$SCRATCH/err" < "$FIFO" &
PID=$!
exec 3> "$FIFO"
printf '%s%s\n' "$JOBS" '{"op":"health"}' >&3

# Eight acks (each durably journalled on its shard before the ack) plus
# the health snapshot.
LINES=0
for _ in $(seq 1 600); do
  LINES=$(wc -l < "$OUT")
  [ "$LINES" -ge 9 ] && break
  sleep 0.1
done
[ "$LINES" -ge 9 ] || {
  echo "FAIL: only $LINES/9 responses before timeout" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}

for N in 1 2 3 4 5 6 7 8; do
  LINE=$(sed -n "${N}p" "$OUT")
  printf '%s\n' "$LINE" | grep -q '"ok":true' || {
    echo "FAIL: submission $N was not accepted" >&2
    cat "$OUT" >&2
    exit 1
  }
  # The routed ack must say where the job went and what key it lives under.
  printf '%s\n' "$LINE" | grep -q '"shard":' || {
    echo "FAIL: ack $N carries no shard attribution" >&2
    exit 1
  }
  printf '%s\n' "$LINE" | grep -q '"cache_key":"' || {
    echo "FAIL: ack $N carries no cache_key" >&2
    exit 1
  }
done

# --- Phase 2: SIGKILL the shard owning job 1, from outside the router. ---
VICTIM=$(sed -n 1p "$OUT" | grep -o '"shard":[0-9]*' | head -1 | cut -d: -f2)
VICTIM_PID=$(sed -n 9p "$OUT" | grep -o '"pid":[0-9]*' \
  | sed -n "$((VICTIM + 1))p" | cut -d: -f2)
[ -n "$VICTIM_PID" ] || {
  echo "FAIL: could not extract shard $VICTIM pid from health" >&2
  sed -n 9p "$OUT" >&2
  exit 1
}
kill -9 "$VICTIM_PID"
sleep 0.3

# --- Phase 3: resubmit everything synchronously through the same router. -
printf '%s%s\n%s\n' "$JOBS" '{"op":"health"}' '{"op":"shutdown"}' \
  | sed 's/"async":true,//' >&3
exec 3>&-
wait "$PID" || {
  echo "FAIL: router exited non-zero" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}

cat "$OUT"
[ "$(wc -l < "$OUT")" -eq 19 ] || {
  echo "FAIL: expected 19 response lines in total" >&2
  exit 1
}

# Every resubmission must be served from the cache: the live shards still
# hold their results, and the victim's journal replay finished the rest
# exactly once before the identical resend reached its queue.
for N in 10 11 12 13 14 15 16 17; do
  LINE=$(sed -n "${N}p" "$OUT")
  printf '%s\n' "$LINE" | grep -q '"ok":true' || {
    echo "FAIL: resubmission on line $N failed after the shard kill" >&2
    exit 1
  }
  printf '%s\n' "$LINE" | grep -q '"cache_hit":true' || {
    echo "FAIL: resubmission on line $N re-ran the engine (result lost)" >&2
    exit 1
  }
done

HEALTH=$(sed -n 18p "$OUT")
printf '%s\n' "$HEALTH" | grep -q '"all_alive":true' || {
  echo "FAIL: cluster is not fully alive after the kill" >&2
  exit 1
}
printf '%s\n' "$HEALTH" | grep -q '"restarts":1' || {
  echo "FAIL: health does not report the shard restart" >&2
  exit 1
}
printf '%s\n' "$HEALTH" | grep -o '"replayed_records":[0-9]*' \
  | grep -qv ':0$' || {
  echo "FAIL: no shard reports a journal replay" >&2
  exit 1
}
echo "lorouter recovery smoke OK"
