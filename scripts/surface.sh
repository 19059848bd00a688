#!/bin/sh
# Per crate, workspace crates first and then the vendored stand-ins under
# vendor/: non-test lines (the lines before the first `#[cfg(test)]` of
# each src/**/*.rs) and the number of `pub fn`. With arguments, the same
# two numbers for just those files. Run from the repository root.
count() { # name file...
    name=$1; shift
    for f in "$@"; do awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"; done |
        awk -v n="$name" '/^[[:space:]]*pub fn / { p++ } END { printf "%-16s %7d lines %5d pub fn\n", n, NR, p }'
}
if [ $# -gt 0 ]; then count "$*" "$@"; exit; fi
for c in crates/*/ vendor/*/; do
    count "$(basename "$c")" $(find "$c/src" -name '*.rs' | sort)
done
