#!/bin/sh
# Non-test Rust line count: every `.rs` file under the given directories
# (default: crates and src), outside tests/, benches/ and examples/, each
# file cut at its first `#[cfg(test)]`. Prints one number.
#
#   scripts/line_count.sh              # the whole workspace
#   scripts/line_count.sh crates/sim   # one crate
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates src
find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/examples/*' \
  | sort \
  | xargs awk 'FNR==1{cut=0} /#\[cfg\(test\)\]/{cut=1} !cut{n++} END{print n+0}' \
  | awk '{s+=$1} END{print s}'
