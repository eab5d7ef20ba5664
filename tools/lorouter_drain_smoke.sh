#!/bin/sh
# lorouter drain-under-load smoke test (also run by CI): submit a batch of
# async jobs across a three-shard cluster, drain the shard that owns the
# first one while the batch is in flight, and assert zero loss -- every
# router id still resolves "done" through a single multiplexed wait (the
# drained shard's ids on its inheritors), cluster health shows two members
# all alive, and re-admitting the shard restores the three-member ring.
set -eu

ROUTER="$1"
WORKER="$2"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

FIFO="$SCRATCH/in"
mkfifo "$FIFO"
OUT="$SCRATCH/out"
# Open the output before the FIFO: the FIFO open blocks until `exec 3>`
# below, so the output file exists by the time the poll reads it.
"$ROUTER" --worker "$WORKER" --shards 3 --threads 1 \
  --journal-root "$SCRATCH/journals" --cache-dir "$SCRATCH/cache" \
  --request-timeout 120s > "$OUT" 2> "$SCRATCH/err" < "$FIFO" &
PID=$!
exec 3> "$FIFO"

JOBS=""
for GBW in 61 62 63 64 65 66 67 68 69; do
  JOBS="$JOBS{\"op\":\"synthesize\",\"async\":true,\"case\":1,\"spec\":{\"gbw\":${GBW}e6}}
"
done
printf '%s' "$JOBS" >&3

LINES=0
for _ in $(seq 1 600); do
  LINES=$(wc -l < "$OUT")
  [ "$LINES" -ge 9 ] && break
  sleep 0.1
done
[ "$LINES" -ge 9 ] || {
  echo "FAIL: only $LINES/9 acks before timeout" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}
IDS=""
for N in 1 2 3 4 5 6 7 8 9; do
  LINE=$(sed -n "${N}p" "$OUT")
  printf '%s\n' "$LINE" | grep -q '"ok":true' || {
    echo "FAIL: submission $N was not accepted" >&2
    cat "$OUT" >&2
    exit 1
  }
  ID=$(printf '%s\n' "$LINE" | grep -o '"id":[0-9]*' | head -1 | cut -d: -f2)
  IDS="$IDS${IDS:+,}$ID"
done
VICTIM=$(sed -n 1p "$OUT" | grep -o '"shard":[0-9]*' | head -1 | cut -d: -f2)

# Drain under load, then resolve every id in one multiplexed wait.
printf '{"op":"drain","shard":%s}\n{"op":"wait","ids":[%s]}\n{"op":"health"}\n{"op":"add","shard":%s}\n{"op":"shutdown"}\n' \
  "$VICTIM" "$IDS" "$VICTIM" >&3
exec 3>&-
wait "$PID" || {
  echo "FAIL: router exited non-zero" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}

cat "$OUT"
DRAIN=$(sed -n 10p "$OUT")
printf '%s\n' "$DRAIN" | grep -q '"ok":true' || {
  echo "FAIL: drain of shard $VICTIM was refused" >&2
  exit 1
}
printf '%s\n' "$DRAIN" | grep -q "\"drained\":$VICTIM" || {
  echo "FAIL: drain response does not name shard $VICTIM" >&2
  exit 1
}
printf '%s\n' "$DRAIN" | grep -q '"members":2' || {
  echo "FAIL: drain did not leave a two-member ring" >&2
  exit 1
}

WAIT=$(sed -n 11p "$OUT")
printf '%s\n' "$WAIT" | grep -q '"ok":true' || {
  echo "FAIL: multiplexed wait failed after the drain" >&2
  exit 1
}
DONE=$(printf '%s\n' "$WAIT" | grep -o '"state":"done"' | wc -l)
[ "$DONE" -eq 9 ] || {
  echo "FAIL: only $DONE/9 jobs resolved done across the drain (work lost)" >&2
  exit 1
}
if printf '%s\n' "$WAIT" | grep -q "\"shard\":$VICTIM[,}]"; then
  echo "FAIL: an outcome claims the drained shard $VICTIM answered it" >&2
  exit 1
fi

HEALTH=$(sed -n 12p "$OUT")
printf '%s\n' "$HEALTH" | grep -q '"members":2' || {
  echo "FAIL: health does not show two members after the drain" >&2
  exit 1
}
printf '%s\n' "$HEALTH" | grep -q '"all_alive":true' || {
  echo "FAIL: surviving members are not all alive" >&2
  exit 1
}

ADD=$(sed -n 13p "$OUT")
printf '%s\n' "$ADD" | grep -q '"ok":true' || {
  echo "FAIL: re-admitting shard $VICTIM was refused" >&2
  exit 1
}
printf '%s\n' "$ADD" | grep -q '"members":3' || {
  echo "FAIL: re-admission did not restore the three-member ring" >&2
  exit 1
}
echo "lorouter drain smoke OK"
