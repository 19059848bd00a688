#!/bin/sh
# Public functions that only tests reach, or that only their own file
# names. For every `pub fn NAME` in the non-test part of crates/*/src
# whose name is defined once there, print `crate NAME` when
#   - NAME occurs in no production code but on its own definition line,
#     where production code is crates/*/src and examples/ up to each
#     file's first `#[cfg(test)]`, and all of benchmark/src, unit tests
#     included (the benchmark changes only with the benchmark, so
#     whatever it names stays); callers in */tests/ and
#     `#[cfg(test)]` code do not count; or
#   - NAME occurs in no other file of crates/, tests/, examples/ or
#     benchmark/src, tests included (it can be private).
# Comment lines (`//`, `///`, `//!`) name nothing: a doc that mentions a
# function is not a use of it.
# A name kept on purpose is listed in `keep` below, one `NAME reason` a
# line; its reason is printed after it. Run from the repository root.
keep='
cross the Vec3 cross product beside dot and norm; the pic-types vector properties pin it
decode_trace the one-call in-memory decoder of either trace format, twin of encode_trace; the trace, workload and validation tests read encoded bytes back through it
drop_iterative the only safe way to drop a tree of untrusted depth; its unit test drops one too deep for the drop glue
element_of_point the scalar point-location oracle: locate_clamped_soa is held to it for every input, and the mesh and mapper tests locate through it
encode_compact the one-call compact encoder, twin of codec::encode_trace; the trace, workload and serve tests build compact bytes with it
encode_trace the one-call raw encoder, twin of decode_trace; the trace, workload, serve and golden-encoding tests build raw bytes with it
flip_bit part of the fault-injection harness in fault.rs, shared by the trace, workload and serve corpora; goes with the harness
for_config the only way to name an AssignmentCache entry outside pic-workload; registry_props recomputes entry bytes through it
simulate_reference the event-per-message DES oracle: the fold is held to it bit for bit by the pic-des properties and integration_des
trace_details the structured view (kind, offset, frame) of a PicError; the fault corpora assert error positions through it
truncation_points part of the fault-injection harness in fault.rs: the cut offsets the trace fault corpus replays; goes with the harness
'
files=$(find crates tests examples benchmark/src -name '*.rs' | sort)
awk -v keep="$keep" '
BEGIN {
    n = split(keep, line, "\n")
    for (i = 1; i <= n; i++) if (line[i] != "") { k = line[i]; sub(/ .*/, "", k); why[k] = substr(line[i], length(k) + 2) }
}
FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
/^#\[cfg\(test\)\]/ && FILENAME !~ /^benchmark\// { in_tests = 1 }
pass == 1 {
    if (!in_tests && FILENAME ~ /^crates\/[^\/]*\/src\// && /^[[:space:]]*pub fn /) {
        name = $0; sub(/^[[:space:]]*pub fn /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
        defs[name]++; home[name] = FILENAME; at[name] = FNR
    }
    next
}
/^[[:space:]]*\/\// { next }
{
    n = split($0, word, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
        w = word[i]
        if (!(w in home)) continue
        if (home[w] != FILENAME) elsewhere[w] = 1
        if (!in_tests && !(home[w] == FILENAME && at[w] == FNR)) used[w] = 1
    }
}
END {
    for (name in home) if (defs[name] == 1 && (!(name in used) || !(name in elsewhere))) {
        split(home[name], part, "/")
        print part[2], name (name in why ? ": " why[name] : "")
    }
}' pass=1 $files pass=2 $files | sort
