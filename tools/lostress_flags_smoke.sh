#!/bin/sh
# lostress numeric-flag validation: junk, negative and non-finite values
# must be rejected with "bad value for --X" plus the usage text and exit
# status 2, before any soak starts.
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

for flag in --seed --clients --threads --pool --max-requests --duration \
            --drain-timeout; do
  expect_bad "$flag" abc
  expect_bad "$flag" -3
  expect_bad "$flag" 3x
  expect_bad "$flag" ''
done
for flag in --duration --drain-timeout; do
  expect_bad "$flag" nan
  expect_bad "$flag" inf
  expect_bad "$flag" infs
done

[ "$fail" -eq 0 ] || exit 1
echo "lostress flags smoke OK"
