#!/bin/sh
# Public functions that only tests call: every `pub fn` in the non-test
# code of crates/*/src and src whose name occurs nowhere else in the
# non-test code of crates, src, examples and perfbench/src. "Non-test"
# is line_count.sh's cut: outside tests/ and benches/, each file cut at
# its first `#[cfg(test)]`; comment lines are skipped, so a doc link is
# not a caller. It is a word search, so check each hit by hand: a name
# shared with another item (or called only through a macro) hides.
# Prints `file:line: name`, one a line.
#
#   scripts/test_only_exports.sh
set -eu
cd "$(dirname "$0")/.."
# The corpus: one `file:line:text` record per non-test, non-comment line,
# then the word counts over it.
find crates src examples perfbench/src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' \
  | sort \
  | xargs awk 'FNR==1{cut=0} /#\[cfg\(test\)\]/{cut=1} !cut && $0 !~ /^[ \t]*\/\// {print FILENAME ":" FNR ":" $0}' \
  | awk -F: '
  {
    line = substr($0, length($1) + length($2) + 3)
    n = split(line, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (w[i] != "") count[w[i]]++
    if (($1 ~ /^crates\/[^\/]+\/src\// || $1 ~ /^src\//) && match(line, /(^|[^A-Za-z0-9_])pub (const )?fn [A-Za-z0-9_]+/)) {
      name = substr(line, RSTART, RLENGTH); sub(/.*fn /, "", name)
      def[++ndefs] = $1 ":" $2 ": " name; def_name[ndefs] = name
    }
  }
  END { for (d = 1; d <= ndefs; d++) if (count[def_name[d]] <= 1) print def[d] }
'
