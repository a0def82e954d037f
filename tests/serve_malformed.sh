#!/bin/sh
# Out-of-range numbers on the svm_serve line protocol must be answered with
# `err code=malformed`, never wrapped, narrowed or allowed to crash the daemon.
# Each bad line gets one malformed answer; the good scan after them must
# still answer `ok`, and the session must exit 0.  Runs in background and
# foreground mode.
#
#   usage: serve_malformed.sh path/to/svm_serve
set -eu
serve="$1"

for mode in "" "--foreground"; do
  out=$(printf '%s\n' \
    'histogram 1 18446744073709551615' \
    'histogram 1 4294967297 1 2' \
    'scan 1 4294967296 18446744073709551616 1' \
    'compress 1 2 1 4294967296 1 1' \
    'scan 18446744073709551616 1' \
    'scan deadline=18446744073709551616 1 1' \
    'budget 1 18446744073709551616' \
    'scan 1 1 2 3' \
    'quit' | "$serve" --quiet $mode)
  malformed=$(printf '%s\n' "$out" | grep -c '^err code=malformed' || true)
  ok=$(printf '%s\n' "$out" | grep -c '^ok ' || true)
  if [ "$malformed" -ne 7 ] || [ "$ok" -ne 1 ]; then
    echo "mode '${mode}': want 7 malformed and 1 ok, got:" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  printf '%s\n' "$out" | grep -q '^ok kind=scan .* data=1,3,6$'
done
echo "serve_malformed: ok"
