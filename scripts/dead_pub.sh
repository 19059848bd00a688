#!/bin/sh
# Public functions nothing calls: for every `pub fn NAME` in the non-test
# part of crates/*/src whose name is defined once in the workspace, print
# `crate NAME` when NAME occurs in no other file of crates/, tests/,
# examples/ or benchmark/src. Run from the repository root.
files=$(find crates tests examples benchmark/src -name '*.rs' | sort)
awk '
FNR == 1 { in_tests = 0 }
/^#\[cfg\(test\)\]/ { in_tests = 1 }
pass == 1 {
    if (!in_tests && FILENAME ~ /^crates\/[^\/]*\/src\// && /^[[:space:]]*pub fn /) {
        name = $0; sub(/^[[:space:]]*pub fn /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
        defs[name]++; home[name] = FILENAME
    }
    next
}
{
    n = split($0, word, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (word[i] in home && home[word[i]] != FILENAME) used[word[i]] = 1
}
END {
    for (name in home) if (defs[name] == 1 && !(name in used)) { split(home[name], part, "/"); print part[2], name }
}' pass=1 $files pass=2 $files | sort
