#!/bin/sh
# lorouter explore-failover smoke test (also run by CI): kill -9 the shard
# that owns an in-flight exploration, on a router that is NOT allowed to
# restart shards (--no-restart), and assert the study still completes --
# the router re-pins the journalled session onto a survivor and the
# failed-over front is byte-identical to a clean run of the same request
# (per-point cache_hit is provenance, not content, and is stripped before
# comparing).
set -eu

ROUTER="$1"
WORKER="$2"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# Case 1 with a loose tolerance: fast, deterministic, non-empty front.
EXPLORE='{"op":"explore","case":1,"budget":5,"max_rounds":2,"tolerance":0.2,"axes":[{"field":"gbw","lo":50e6,"hi":65e6,"points":2}]}'
EXPLORE_ASYNC='{"op":"explore","async":true,"case":1,"budget":5,"max_rounds":2,"tolerance":0.2,"axes":[{"field":"gbw","lo":50e6,"hi":65e6,"points":2}]}'

front_of() {
  # The front array, with each point's cache_hit flag scrubbed.
  grep -o '"front":\[[^]]*\]' \
    | sed -e 's/,"cache_hit":true//g' -e 's/,"cache_hit":false//g'
}

# --- Phase 1: a clean synchronous run captures the reference front. ------
REF_OUT="$SCRATCH/ref_out"
printf '%s\n%s\n' "$EXPLORE" '{"op":"shutdown"}' \
  | "$ROUTER" --worker "$WORKER" --shards 2 --threads 2 \
      --journal-root "$SCRATCH/ref_journals" --cache-dir "$SCRATCH/ref_cache" \
      --request-timeout 120s > "$REF_OUT" 2> "$SCRATCH/ref_err"
sed -n 1p "$REF_OUT" | grep -q '"ok":true' || {
  echo "FAIL: reference exploration failed" >&2
  cat "$REF_OUT" "$SCRATCH/ref_err" >&2
  exit 1
}
REF_FRONT=$(sed -n 1p "$REF_OUT" | front_of)
[ -n "$REF_FRONT" ] || {
  echo "FAIL: reference run produced no front" >&2
  exit 1
}

# --- Phase 2: fresh cluster, async explore, kill -9 the owning shard. ----
FIFO="$SCRATCH/in"
mkfifo "$FIFO"
OUT="$SCRATCH/out"
# Open the output before the FIFO: the FIFO open blocks until `exec 3>`
# below, so the output file exists by the time the poll reads it.
"$ROUTER" --worker "$WORKER" --shards 2 --threads 2 --no-restart \
  --journal-root "$SCRATCH/journals" --cache-dir "$SCRATCH/cache" \
  --request-timeout 120s > "$OUT" 2> "$SCRATCH/err" < "$FIFO" &
PID=$!
exec 3> "$FIFO"
printf '%s\n%s\n' "$EXPLORE_ASYNC" '{"op":"health"}' >&3

LINES=0
for _ in $(seq 1 600); do
  LINES=$(wc -l < "$OUT")
  [ "$LINES" -ge 2 ] && break
  sleep 0.1
done
[ "$LINES" -ge 2 ] || {
  echo "FAIL: no ack/health before timeout" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}
ACK=$(sed -n 1p "$OUT")
printf '%s\n' "$ACK" | grep -q '"ok":true' || {
  echo "FAIL: async explore was not accepted" >&2
  cat "$OUT" >&2
  exit 1
}
VICTIM=$(printf '%s\n' "$ACK" | grep -o '"shard":[0-9]*' | head -1 | cut -d: -f2)
EXPLORE_ID=$(printf '%s\n' "$ACK" | grep -o '"explore_id":[0-9]*' | cut -d: -f2)
VICTIM_PID=$(sed -n 2p "$OUT" | grep -o '"pid":[0-9]*' \
  | sed -n "$((VICTIM + 1))p" | cut -d: -f2)
[ -n "$VICTIM_PID" ] || {
  echo "FAIL: could not extract shard $VICTIM pid from health" >&2
  sed -n 2p "$OUT" >&2
  exit 1
}
kill -9 "$VICTIM_PID"
sleep 0.3

# --- Phase 3: the result must come back anyway, from a survivor. ---------
printf '{"op":"explore_result","explore_id":%s}\n{"op":"shutdown"}\n' \
  "$EXPLORE_ID" >&3
exec 3>&-
wait "$PID" || {
  echo "FAIL: router exited non-zero" >&2
  cat "$SCRATCH/err" >&2
  exit 1
}

cat "$OUT"
RESULT=$(sed -n 3p "$OUT")
printf '%s\n' "$RESULT" | grep -q '"ok":true' || {
  echo "FAIL: explore_result failed after the shard kill" >&2
  exit 1
}
RESULT_SHARD=$(printf '%s\n' "$RESULT" | grep -o '"shard":[0-9]*' | head -1 \
  | cut -d: -f2)
[ "$RESULT_SHARD" != "$VICTIM" ] || {
  echo "FAIL: result claims the dead shard $VICTIM answered it" >&2
  exit 1
}
STORM_FRONT=$(printf '%s\n' "$RESULT" | front_of)
[ -n "$STORM_FRONT" ] || {
  echo "FAIL: failed-over exploration produced no front" >&2
  exit 1
}
[ "$STORM_FRONT" = "$REF_FRONT" ] || {
  echo "FAIL: failed-over front diverged from the clean reference run" >&2
  printf 'reference: %s\nfailover:  %s\n' "$REF_FRONT" "$STORM_FRONT" >&2
  exit 1
}
echo "lorouter failover smoke OK"
