#!/usr/bin/env bash
# loc.sh [git-rev]: Rust line counts per area, one row each, plus the two
# totals ROADMAP's north star quotes. With a revision, counts that commit
# instead of the working tree — so "smaller by measurement" is one command
# run twice.
set -eu
cd "$(dirname "$0")/.."
rev="${1:-}"
count() { # <dir>: lines of the .rs files under it
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- "$1" | grep '\.rs$' |
            while read -r f; do git show "$rev:$f"; done | wc -l
    else
        find "$1" -name '*.rs' -not -path '*/target/*' -exec cat {} + 2>/dev/null | wc -l
    fi
}
total=0
for d in crates/*/src crates/*/tests tests examples src; do
    n=$(count "$d"); total=$((total + n))
    printf '%-28s %7d\n' "$d" "$n"
done
bench=$(count loadbench)
printf '%-28s %7d\n' loadbench "$bench"
printf '%-28s %7d\n' 'TOTAL crates+src+tests+examples' "$total" 'TOTAL with loadbench' $((total + bench))
