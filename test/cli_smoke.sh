#!/bin/sh
# CLI smoke (rides in @runtest, so in @ci too): arguments the library
# refuses must end in a one-line refusal, never in cmdliner's "internal
# error, uncaught exception" report.  Every case must exit 2 (refused by
# the library, reported once around Cmd.eval) or 124 (refused by
# cmdliner while parsing), the admin commands pointed at a missing
# directory must leave it missing, and `serve --socket` pointed at a
# regular file must leave the file in place.  Then the flight recorder:
# a traced slotted `sim` must record slotted.success instants, and a
# detail-tier `trace record` of the RTS/CTS chain its spatial.rts,
# spatial.cts and spatial.nav_defer instants.  The library's spans must
# record too: `serve --stdin --trace` on a cold payoff line and a tau
# line must list serve.request, oracle.solve and newton.solve, `trace
# record --workload sweep` runner.sweep and runner.task, and `trace
# record --workload solve` newton.solve.  Last, the CLI and the service
# must give one answer: each node's payoff from `solve` equals the served
# payoff for the same profile, rounded to the 4 decimals `solve` prints.
set -u

cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

failures=0

# fail MESSAGE [FILE]: report a failed case with FILE (default: the last
# command's stderr) indented below it.
fail() {
  echo "cli-smoke: $1" >&2
  sed 's/^/  | /' "${2:-$dir/stderr}" >&2
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
# A stage count whose largest window, cw_max*2^m, is not an int: both
# commands loop over every stage, so it must be refused before they run.
refused solve -m 100000000000 16 32
refused delay -m 100000000000 -n 5

for admin in "store stats" "store compact" "cache stats" "cache gc"; do
  # Unquoted on purpose: "store stats" is a command and its subcommand.
  refused $admin "$dir/missing/sub"
  if [ -e "$dir/missing" ]; then
    fail "'$admin' created $dir/missing"
    rm -rf "$dir/missing"
  fi
done

# --max-connections 0: a socket that does get bound is closed at once.
refused serve --socket "$dir/missing/sock" --max-connections 0
echo keep >"$dir/regular.txt"
refused serve --socket "$dir/regular.txt" --max-connections 0
[ -f "$dir/regular.txt" ] || fail "'serve --socket' deleted a regular file"
# No such option: a batch envelope is the way to warm-start solves.
refused serve --stdin --warm-start </dev/null

# lists TRACE NAME...: `trace summary TRACE` lists every NAME.
lists() {
  trace="$1"
  shift
  if ! "$cli" trace summary "$trace" >"$dir/summary" 2>"$dir/stderr"; then
    fail "'trace summary $trace' failed"
    return
  fi
  for name in "$@"; do
    grep -q "^$name " "$dir/summary" ||
      fail "the summary of $trace does not list $name" "$dir/summary"
  done
}

if "$cli" sim -n 5 --duration 1 --trace "$dir/sim.bin" \
  >/dev/null 2>"$dir/stderr"; then
  lists "$dir/sim.bin" slotted.success
else
  fail "'sim --trace' failed"
fi
if "$cli" trace record --workload chain30 --detail --duration 1 \
  -o "$dir/chain.bin" >/dev/null 2>"$dir/stderr"; then
  lists "$dir/chain.bin" spatial.rts spatial.cts spatial.nav_defer
else
  fail "'trace record --workload chain30 --detail' failed"
fi

printf '%s\n' '{"op":"payoff","profile":[16,32,32,64]}' \
  '{"op":"tau","n":5,"w":64}' >"$dir/requests"
if "$cli" serve --stdin --trace "$dir/serve.bin" <"$dir/requests" \
  >/dev/null 2>"$dir/stderr"; then
  lists "$dir/serve.bin" serve.request oracle.solve newton.solve
else
  fail "'serve --stdin --trace' failed"
fi
if "$cli" trace record --workload sweep -o "$dir/sweep.bin" \
  >/dev/null 2>"$dir/stderr"; then
  lists "$dir/sweep.bin" runner.sweep runner.task
else
  fail "'trace record --workload sweep' failed"
fi
if "$cli" trace record --workload solve -o "$dir/solve.bin" \
  >/dev/null 2>"$dir/stderr"; then
  lists "$dir/solve.bin" newton.solve
else
  fail "'trace record --workload solve' failed"
fi

if "$cli" solve 16 32 32 64 >"$dir/solve.txt" 2>"$dir/stderr" &&
  printf '%s\n' '{"op":"payoff","profile":[16,32,32,64]}' |
  "$cli" serve --stdin >"$dir/served.txt" 2>"$dir/stderr"; then
  awk -F'|' '$1 ~ /^ *[0-9]+ *$/ { gsub(/ /, "", $6); print $6 }' \
    "$dir/solve.txt" >"$dir/solve.payoffs"
  sed -n 's/.*"payoffs":\[\([^]]*\)\].*/\1/p' "$dir/served.txt" |
    tr ',' '\n' | awk '{ printf "%+.4f\n", $1 }' >"$dir/served.payoffs"
  if [ ! -s "$dir/solve.payoffs" ] ||
    ! diff "$dir/solve.payoffs" "$dir/served.payoffs" >"$dir/diff"; then
    fail "'solve 16 32 32 64' and the served payoffs disagree" "$dir/diff"
  fi
else
  fail "'solve 16 32 32 64' or 'serve --stdin' failed"
fi

[ "$failures" -eq 0 ] || exit 1
echo "cli-smoke: ok"
