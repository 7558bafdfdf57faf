#!/bin/sh
# Public functions that only tests call: every `pub fn` in the non-test
# code of crates/*/src and src whose name is used nowhere in the non-test
# code of crates, src, examples and perfbench/src. "Non-test" is
# line_count.sh's cut: outside tests/ and benches/, each file cut at its
# first `#[cfg(test)]`. A name counts as used only on a line that is not
# a comment, not part of a `use` item, and not a definition of that same
# name (`fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`,
# `mod`), so a doc link, a re-export or another item of the same name is
# not a caller. It is still a word search: a name called elsewhere on an
# unrelated item (`new`, `len`) hides.
#
# Prints `file:line: name`, one a line, then fails if a name is missing
# from scripts/test_only_exports.allow (`name: reason`, one a line; `#`
# starts a comment).
#
#   scripts/test_only_exports.sh
set -eu
cd "$(dirname "$0")/.."
allow=scripts/test_only_exports.allow
hits=$(
  find crates src examples perfbench/src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' \
    | sort \
    | xargs awk 'FNR==1{cut=0} /#\[cfg\(test\)\]/{cut=1} !cut && $0 !~ /^[ \t]*\/\// {print FILENAME ":" FNR ":" $0}' \
    | awk -F: '
    {
      line = substr($0, length($1) + length($2) + 3)
      if ($1 != file) { file = $1; in_use = 0 }
      # A `use` item runs from its keyword to its `;`, over several lines.
      if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) in_use = 1
      if (in_use) { if (index(line, ";")) in_use = 0; next }
      # The names this line defines do not count as used on it.
      split("", defined)
      rest = line
      while (match(rest, /(^|[^A-Za-z0-9_])(fn|struct|enum|trait|type|const|static|mod) +[A-Za-z0-9_]+/)) {
        d = substr(rest, RSTART, RLENGTH); sub(/.* /, "", d); defined[d] = 1
        rest = substr(rest, RSTART + RLENGTH - length(d))
      }
      if (($1 ~ /^crates\/[^\/]+\/src\// || $1 ~ /^src\//) && match(line, /(^|[^A-Za-z0-9_])pub (const )?fn [A-Za-z0-9_]+/)) {
        name = substr(line, RSTART, RLENGTH); sub(/.*fn /, "", name)
        def[++ndefs] = $1 ":" $2 ": " name; def_name[ndefs] = name
      }
      split("", seen)
      n = split(line, w, /[^A-Za-z0-9_]+/)
      for (i = 1; i <= n; i++)
        if (w[i] != "" && !(w[i] in defined) && !(w[i] in seen)) { seen[w[i]] = 1; used[w[i]]++ }
    }
    END { for (d = 1; d <= ndefs; d++) if (!(def_name[d] in used)) print def[d] }
  '
)
[ -z "$hits" ] || printf '%s\n' "$hits"
unlisted=$(printf '%s\n' "$hits" | awk -v allow="$allow" '
  BEGIN {
    while ((getline l < allow) > 0) {
      sub(/#.*/, "", l); sub(/:.*/, "", l); gsub(/[ \t]/, "", l)
      if (l != "") ok[l] = 1
    }
  }
  $0 != "" && !($NF in ok) { print $NF }
')
if [ -n "$unlisted" ]; then
  echo "test-only exports missing from $allow:" $unlisted >&2
  exit 1
fi
