#!/usr/bin/env sh
# lint.sh — the pre-commit gate, mirroring CI's lint job:
#   gofmt (no unformatted files), go vet, and shapelint (the repo's own
#   invariant analyzers, run standalone over every package and again
#   through go vet's -vettool protocol).
# staticcheck and govulncheck run too when installed, and are skipped with a
# note otherwise — CI installs them, local checkouts need not.
#
# Usage: scripts/lint.sh   (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:"
    echo "$unformatted"
    fail=1
fi

echo "== go vet"
go vet ./... || fail=1

echo "== shapelint"
tmpbin=$(mktemp -d)
trap 'rm -rf "$tmpbin"' EXIT
go build -o "$tmpbin/shapelint" ./cmd/shapelint
"$tmpbin/shapelint" ./... || fail=1

echo "== shapelint (go vet -vettool)"
go vet -vettool="$tmpbin/shapelint" ./... || fail=1

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./... || fail=1
else
    echo "== staticcheck (not installed; skipping — CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./... || fail=1
else
    echo "== govulncheck (not installed; skipping — CI runs it)"
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: ok"
