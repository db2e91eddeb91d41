#!/bin/sh
# Non-blank Rust lines per workspace package, then a total.
#
# Counts every `.rs` file of a package except those under `tests/`,
# `examples/` and `benches/`, and skips `#[cfg(test)] mod` blocks, so the
# figure is the code a package ships. The root `wcp` package is counted
# from `src/` only (its directory also holds `crates/` and `perfbench/`);
# `perfbench/` is a separate workspace and is not counted. A change
# quotes this script's before/after totals as its net line count.
#
#     ./scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/examples/*' -not -path '*/benches/*' \
        -not -path '*/target/*' -print0 2>/dev/null |
        xargs -0 -r awk '
            FNR == 1 { pending = 0; depth = 0 }
            depth > 0 {
                depth += gsub(/\{/, "{") - gsub(/\}/, "}")
                next
            }
            /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; next }
            pending && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+[ \t]*\{/ {
                pending = 0
                depth = gsub(/\{/, "{") - gsub(/\}/, "}")
                next
            }
            {
                if (pending) { pending = 0; if (NF) n++ }
                if (NF) n++
            }
            END { print n + 0 }'
}

total=0
report() {
    lines=$(count "$2")
    printf '%-14s %7d\n' "$1" "$lines"
    total=$((total + lines))
}

report wcp src
for dir in crates/*/; do
    dir=${dir%/}
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    report "$name" "$dir"
done
printf '%-14s %7d\n' total "$total"
