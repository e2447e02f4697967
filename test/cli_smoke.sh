#!/bin/sh
# CLI smoke (rides in @runtest, so in @ci too): arguments the library
# refuses must end in a one-line refusal, never in cmdliner's "internal
# error, uncaught exception" report.  Every case must exit 2 (refused by
# the library, reported once around Cmd.eval) or 124 (refused by
# cmdliner while parsing), and the admin commands pointed at a missing
# directory must leave it missing.
set -u

cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

failures=0

fail() {
  echo "cli-smoke: $1" >&2
  sed 's/^/  | /' "$dir/stderr" >&2
  failures=$((failures + 1))
}

# refused ARGS...: the command exits 2 or 124 and reports no uncaught
# exception.
refused() {
  "$cli" "$@" >/dev/null 2>"$dir/stderr"
  status=$?
  case "$status" in
    2 | 124) ;;
    *) fail "'$*' exited $status, want 2 or 124" ;;
  esac
  if grep -q "uncaught exception" "$dir/stderr"; then
    fail "'$*' reported an uncaught exception"
  fi
}

refused ne -n 0
refused game -n 0
refused sweep -n 0
refused delay -n 0
refused ne-multi -n 0
refused multihop --nodes 0
refused detect --samples 0
refused solve 0
refused trace record --capacity 3 -o "$dir/trace.bin"
refused sim -n 0
refused ne --backend slotted --replicates 0

for admin in "store stats" "store compact" "cache stats" "cache gc"; do
  # Unquoted on purpose: "store stats" is a command and its subcommand.
  refused $admin "$dir/missing/sub"
  if [ -e "$dir/missing" ]; then
    fail "'$admin' created $dir/missing"
    rm -rf "$dir/missing"
  fi
done

[ "$failures" -eq 0 ] || exit 1
echo "cli-smoke: ok"
