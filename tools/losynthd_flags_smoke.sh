#!/bin/sh
# losynthd numeric-flag validation: junk and negative values must be
# rejected with "bad value for --X" plus the usage text and exit status 2,
# before the daemon reads any request.
set -u

BIN="$1"
fail=0

expect_bad() {
  flag="$1"
  val="$2"
  err=$("$BIN" "$flag" "$val" </dev/null 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $flag '$val' exited $status, expected 2" >&2
    fail=1
  fi
  printf '%s\n' "$err" | grep -q -- "bad value for $flag" || {
    echo "FAIL: $flag '$val' did not report 'bad value for $flag': $err" >&2
    fail=1
  }
  printf '%s\n' "$err" | grep -q 'usage:' || {
    echo "FAIL: $flag '$val' did not print the usage text" >&2
    fail=1
  }
}

for flag in --threads --queue-depth --cache-capacity --shed-watermark --breaker \
            --breaker-reset; do
  expect_bad "$flag" abc
  expect_bad "$flag" -1
  expect_bad "$flag" 3x
  expect_bad "$flag" ''
done
expect_bad --shed-watermark nan
expect_bad --breaker-reset inf

# Valid values still start the daemon (empty stdin: it exits cleanly).
"$BIN" --threads 1 --queue-depth 8 --cache-capacity 4 --shed-watermark 0.5 \
  --breaker 3 --breaker-reset 1.5 </dev/null >/dev/null || {
  echo "FAIL: valid numeric flags were rejected" >&2
  fail=1
}

[ "$fail" -eq 0 ] || exit 1
echo "losynthd flags smoke OK"
