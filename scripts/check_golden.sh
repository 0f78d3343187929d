#!/bin/sh
# Runs a command and diffs its standard output against a golden file.
#
#   scripts/check_golden.sh GOLDEN COMMAND [ARG...]
#
# Exits 0 when the output matches GOLDEN byte for byte, 1 (printing the
# unified diff) when it differs or the command fails. To accept a
# deliberate change, regenerate GOLDEN by running COMMAND > GOLDEN and say
# in the change why the output moved.
golden=$1
shift
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT
if ! "$@" >"$out"; then
  echo "command failed: $*" >&2
  exit 1
fi
diff -u "$golden" "$out"
