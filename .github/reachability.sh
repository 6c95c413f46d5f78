#!/usr/bin/env bash
# Reachability gate: every function declared in non-test library code
# must be linked by some program (cmd/*, examples/*, perfbench), or be
# listed in testdata/reachability.allow with a reason.
#
# Usage: bash .github/reachability.sh   (from anywhere in the repo)
#
# Fails when a declared function is unreached and not allowlisted, or
# when an allowlist line names a symbol that is now reached or no
# longer declared. Inlining is off, so a function folded into its
# caller still shows up as reached.
#
# Each allowlist line is "<symbol> <reason>", sorted by symbol. The
# reason is one of:
#   api                 exported from pixel, pixel/api or pixel/fleet
#   asm                 an assembly stub (the binary names it .abi0)
#   oracle <TestName>   a reference that the named test compares a
#                       live path against
#   item2               feasibility physics kept for ROADMAP item 2
#   perfbench           called from perfbench source, but not linked
set -euo pipefail
export LC_ALL=C
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

allow=testdata/reachability.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin"

for d in cmd/*/ examples/*/; do
	name=$(basename "$d")
	go build -gcflags=all=-l -o "$work/bin/$(dirname "$d")-$name" "./$d"
done
go -C perfbench build -gcflags=all=-l -o "$work/bin/perfbench" .

# Reached: every text symbol of every binary. The name is everything
# after the type column (a generic instantiation's name holds spaces);
# balanced [...] groups (type arguments) are stripped and (*T) becomes T.
for b in "$work"/bin/*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]* [Tt] //p' |
	sed -E ':a; s/\[[^][]*\]//g; ta; s/\(\*([^)]*)\)/\1/g' |
	sort -u >"$work/reached"

# Declared: every top-level function and method in tracked non-test
# library code, methods under their receiver's type (a file that
# declares none is skipped).
git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' ':!:cmd/*' ':!:examples/*' |
	while read -r f; do
		pkg=pixel/$(dirname "$f")
		[ "$pkg" = pixel/. ] && pkg=pixel
		grep -oE '^func (\(([A-Za-z0-9_]+ )?\*?[A-Za-z0-9_]+(\[[^]]*\])?\) )?[A-Za-z0-9_]+' "$f" |
			sed -E 's/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) /\2./; s/^func //; s|^|'"$pkg"'.|' || true
	done | sort -u >"$work/declared"

comm -23 "$work/declared" "$work/reached" >"$work/unreached"

fail=0
grep -vE '^(#|$)' "$allow" >"$work/lines" || true
if ! sort -c "$work/lines" 2>/dev/null; then
	echo "reachability: $allow is not sorted" >&2
	fail=1
fi
while read -r sym reason arg rest; do
	ok=1
	case "$reason" in
	api | asm | item2 | perfbench) [ -z "$arg" ] || ok=0 ;;
	oracle) grep -rqE "^func $arg\(" --include='*_test.go' . || ok=0 ;;
	*) ok=0 ;;
	esac
	if [ "$ok" = 0 ] || [ -n "$rest" ]; then
		echo "reachability: bad reason for $sym: $reason $arg $rest" >&2
		fail=1
	fi
done <"$work/lines"
cut -d' ' -f1 "$work/lines" | sort -u >"$work/allowed"

new=$(comm -23 "$work/unreached" "$work/allowed")
stale=$(comm -13 "$work/unreached" "$work/allowed")
if [ -n "$new" ]; then
	echo "reachability: unreached by every program and not in $allow:" >&2
	echo "$new" | sed 's/^/  /' >&2
	fail=1
fi
if [ -n "$stale" ]; then
	echo "reachability: in $allow but reached or no longer declared:" >&2
	echo "$stale" | sed 's/^/  /' >&2
	fail=1
fi
[ "$fail" = 0 ] && echo "reachability: ok ($(wc -l <"$work/allowed") allowlisted)"
exit "$fail"
