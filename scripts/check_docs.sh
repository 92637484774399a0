#!/bin/sh
# Keep the documentation honest: every fenced ```go block in README.md
# must be a complete program that compiles against the current public
# API (each block is extracted into its own scratch module that
# `replace`s lasvegas with this checkout), and every relative markdown
# link in README.md, ROADMAP.md and docs/ must point at a file that
# exists, as must every *.md file a .go file names (at the repo root
# or under docs/). CI runs this on every push (the docs job).
#
#   scripts/check_docs.sh
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "== extracting fenced go blocks from README.md"
awk -v dir="$tmp" '
    /^```go$/ { n++; path = dir "/snippet" n; system("mkdir -p \"" path "\""); inblock = 1; next }
    /^```/    { inblock = 0; next }
    inblock   { print > (path "/main.go") }
' README.md

count=0
for d in "$tmp"/snippet*; do
    [ -d "$d" ] || continue
    count=$((count + 1))
    cat >"$d/go.mod" <<EOF
module readme.snippet

go 1.24

require lasvegas v0.0.0

replace lasvegas => $repo
EOF
    echo "== building README go block $count"
    if ! (cd "$d" && go build ./...); then
        echo "README.md go block $count does not compile:" >&2
        sed 's/^/    /' "$d/main.go" >&2
        exit 1
    fi
done
if [ "$count" = 0 ]; then
    echo "README.md has no fenced go blocks — nothing guards the quickstart" >&2
    exit 1
fi

echo "== checking relative markdown links (README.md, ROADMAP.md, docs/)"
fail=0
for f in README.md ROADMAP.md docs/*.md; do
    [ -f "$f" ] || continue
    base="$(dirname "$f")"
    # Extract every markdown link target "](...)"; external URLs and
    # pure fragments are out of scope, everything else must resolve
    # relative to the file (or the repo root, for root-anchored docs).
    for target in $(grep -o '\]([^)]*)' "$f" | sed 's/^\](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
            echo "broken link in $f: ($target)" >&2
            fail=1
        fi
    done
done
[ "$fail" = 0 ] || exit 1

echo "== checking *.md files named in .go files"
grep -rnoE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' --include='*.go' . >"$tmp/mdrefs" || true
while IFS= read -r ref; do
    name="${ref##*:}"
    name="${name#./}"
    if [ ! -e "$name" ] && [ ! -e "docs/$name" ]; then
        echo "dangling doc reference in ${ref%:*}: $name" >&2
        fail=1
    fi
done <"$tmp/mdrefs"
[ "$fail" = 0 ] || exit 1

echo "docs check: OK ($count go block(s) compiled, links and doc references resolve)"
