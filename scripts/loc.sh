#!/usr/bin/env sh
# loc.sh — code size per package, the measure ROADMAP's north star tracks
# next to ns/op: the lines of non-test Go files (every line, comments and
# blanks included, of the files `go list` reports as GoFiles) and the
# exported top-level funcs and methods declared in them. Only sh, grep, wc
# and `go list` are used.
#
# Usage: scripts/loc.sh [packages]   (default ./...; from anywhere inside
#                                     the repo)
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- ./...

total_lines=0
total_exported=0
printf '%-40s %7s %9s\n' package lines exported
pkgs=$(go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' "$@")
while read -r pkg dir files; do
    [ -n "$files" ] || continue
    lines=0
    exported=0
    for f in $files; do
        n=$(wc -l < "$dir/$f")
        e=$(grep -c -E '^func (\([^)]*\) )?[A-Z]' "$dir/$f" || true)
        lines=$((lines + n))
        exported=$((exported + e))
    done
    printf '%-40s %7d %9d\n' "$pkg" "$lines" "$exported"
    total_lines=$((total_lines + lines))
    total_exported=$((total_exported + exported))
done <<EOF
$pkgs
EOF
printf '%-40s %7d %9d\n' total "$total_lines" "$total_exported"
