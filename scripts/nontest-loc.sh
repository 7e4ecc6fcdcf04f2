#!/bin/sh
# Non-test line count: for each .rs file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none).
#
#   scripts/nontest-loc.sh                 one total per crate (crates/*/src)
#   scripts/nontest-loc.sh PATH...         one line per file under the given
#                                          files/directories, then their sum
#
# Counts lines, not statements: reformatting moves the number without
# changing the program, so compare it only between commits formatted by the
# same rustfmt.toml.
set -eu
cd "$(dirname "$0")/.."

count() { # files on stdin -> "lines path" per file, then "total"
    xargs awk '
        FNR == 1 { if (file != "") print n, file; file = FILENAME; n = 0; open = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { open = 0 }
        open { n++; total++ }
        END { if (file != "") print n, file; print total + 0, "total" }'
}

if [ "$#" -gt 0 ]; then
    find "$@" -name '*.rs' | sort | count
else
    for src in crates/*/src; do
        printf '%6d %s\n' "$(find "$src" -name '*.rs' | sort | count | awk 'END { print $1 }')" "$src"
    done
    printf '%6d %s\n' "$(find crates/*/src -name '*.rs' | sort | count | awk 'END { print $1 }')" total
fi
