#!/bin/sh
# Serve smoke (rides in @ci via the @serve-smoke alias): drive the oracle
# service end-to-end through the CLI, twice, against one --store
# directory.  The first run answers cold and persists; the second must
# answer the same questions from the store (tier "store" in the replies —
# the acceptance criterion "store hits > 0 on a second run") and both
# runs must turn a malformed line into an error reply instead of dying.
# The second run's tiers are counted per reply, batch members included:
# 5 leaves come from the store and 1 from the memo (the batch's welfare
# n=5 w=64 reuses the (5, 64) entry line 1's store answer put in the
# memo), none cold.
# The batch envelope carries two neighbouring payoff members, so the
# second is warm-started by the envelope's batch context; with
# elapsed_ms and tier masked, the two runs' transcripts must be
# identical: every answer, batch-warm ones included, comes back from the
# store bit for bit.
set -eu

cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

requests='{"id":1,"op":"tau","n":5,"w":64}
{"id":2,"op":"ne","n":2}
{"id":3,"op":"batch","requests":[{"op":"welfare","n":5,"w":64},{"op":"tau","n":5,"w":128},{"op":"payoff","profile":[40,40,300,700]},{"op":"payoff","profile":[41,41,300,700]}]}
this line is not json'

fail() {
  echo "serve-smoke: $1" >&2
  echo "--- first run ---" >&2
  printf '%s\n' "$first" >&2
  echo "--- second run ---" >&2
  printf '%s\n' "$second" >&2
  exit 1
}

first=$(printf '%s\n' "$requests" | "$cli" serve --stdin --store "$dir/store")
second=$(printf '%s\n' "$requests" | "$cli" serve --stdin --store "$dir/store")

case "$first" in
  *'"tier":"cold"'*) ;;
  *) fail "first run produced no cold-tier reply" ;;
esac
case "$first" in
  *'"ok":false'*) ;;
  *) fail "first run produced no error reply for the malformed line" ;;
esac

# One count per tier field, so a batch reply counts each member.
tiers() {
  printf '%s\n' "$1" | grep -o "\"tier\":\"$2\"" | wc -l | tr -d ' '
}
store_hits=$(tiers "$second" store)
memo_hits=$(tiers "$second" memo)
cold_hits=$(tiers "$second" cold)
[ "$store_hits" -eq 5 ] && [ "$memo_hits" -eq 1 ] && [ "$cold_hits" -eq 0 ] ||
  fail "second run tiers: $store_hits store, $memo_hits memo, $cold_hits cold; want 5, 1, 0"
case "$second" in
  *'"ok":false'*) ;;
  *) fail "second run produced no error reply for the malformed line" ;;
esac

# Both runs answered every line: 3 replies + 1 error each.
[ "$(printf '%s\n' "$first" | wc -l)" -eq 4 ] || fail "first run reply count != 4"
[ "$(printf '%s\n' "$second" | wc -l)" -eq 4 ] || fail "second run reply count != 4"

mask() {
  printf '%s\n' "$1" |
    sed -e 's/"elapsed_ms":[-0-9.e+]*/"elapsed_ms":_/g' \
      -e 's/"tier":"[a-z]*"/"tier":_/g'
}
[ "$(mask "$first")" = "$(mask "$second")" ] ||
  fail "stored answers differ from the cold run's (elapsed_ms and tier masked)"

echo "serve-smoke: ok (second run: $store_hits store-tier and $memo_hits memo-tier answers)"
