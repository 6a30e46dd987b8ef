#!/bin/sh
# unreached.sh lists every production function of the root module that
# none of its linked binaries contains: each main package of the module
# (the CLI, tools and examples) and bench's snowbench, built with
# inlining off (-gcflags=all=-l) so a function the compiler inlined
# everywhere still counts as reached. Generic functions match by name,
# without type arguments. It prints "file:line symbol", one per line.
#
# With -check it prints only the symbols tools/unreached.allow does not
# name (one "symbol<TAB>reason" per line) and exits 1 if there are any;
# allowed symbols that the listing no longer holds are reported too,
# without failing. Run from the repository root:
#
#	sh tools/unreached.sh [-check]
set -eu
check=false
case "${1:-}" in
-check) check=true ;;
"") ;;
*) echo "usage: sh tools/unreached.sh [-check]" >&2; exit 2 ;;
esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Build every binary; mains maps a main package to its executable.
i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	i=$((i + 1))
	go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
	echo "$pkg $tmp/bin$i"
done >"$tmp/mains"
(cd bench && go build -gcflags=all=-l -o "$tmp/bin0" ./cmd/snowbench)

# Text symbols as "binary name", with type arguments and the parentheses
# of pointer receivers stripped: pkg.(*T[...]).M becomes pkg.T.M.
for b in "$tmp"/bin*; do
	go tool nm "$b" | awk -v bin="$b" '$2 == "T" || $2 == "t" {
		$1 = ""; $2 = ""; sub(/^ +/, ""); print bin, $0 }'
done | sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' -e 's/(\*\([^)]*\))/\1/g' >"$tmp/syms"

# Declared functions as "package name file:line symbol", from the files
# each package builds (tests and excluded build tags left out).
root=$(pwd)
go list -f '{{.ImportPath}} {{.Name}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./... |
	while read -r pkg name dir files; do
		rel=${dir#"$root"}
		for f in $files; do
			awk -v pkg="$pkg" -v name="$name" -v file="${rel#/}${rel:+/}$f" '
			/^func / {
				line = $0; sub(/^func /, "", line); recv = ""
				if (line ~ /^\(/) {
					r = line; sub(/\).*/, "", r); sub(/^\(/, "", r)
					n = split(r, parts, /[ \t]+/); recv = parts[n]
					gsub(/\*/, "", recv); sub(/\[.*/, "", recv)
					sub(/^\([^)]*\)[ \t]*/, "", line)
				}
				fn = line; sub(/[\[( ].*/, "", fn)
				if (fn == "init" || fn == "_" || (fn == "main" && recv == "")) next
				if (recv != "") fn = recv "." fn
				print pkg, name, file ":" FNR, fn
			}' "$dir/$f"
		done
	done >"$tmp/funcs"

# A main package's functions link as main.F into its own binary only.
awk -v mains="$tmp/mains" -v syms="$tmp/syms" '
	BEGIN {
		while ((getline l < mains) > 0) { split(l, a, " "); binof[a[1]] = a[2] }
		while ((getline l < syms) > 0) {
			sp = index(l, " "); b = substr(l, 1, sp - 1); s = substr(l, sp + 1)
			have[b SUBSEP s] = 1; any[s] = 1
		}
	}
	$2 == "main" { if (!((binof[$1] SUBSEP "main." $4) in have)) print $3, "main." $4 " (" $1 ")"; next }
	!(($1 "." $4) in any) { print $3, $1 "." $4 }
' "$tmp/funcs" >"$tmp/unreached"

if ! $check; then
	cat "$tmp/unreached"
	exit 0
fi
# The symbol is everything after the "file:line " prefix.
awk -F '\t' -v out="$tmp/unreached" '
	!/^#/ && NF { allowed[$1] = 1 }
	END {
		bad = 0
		while ((getline l < out) > 0) {
			sym = l; sub(/^[^ ]+ /, "", sym); seen[sym] = 1
			if (!(sym in allowed)) { print "unreached, not in tools/unreached.allow: " l; bad = 1 }
		}
		for (s in allowed) if (!(s in seen)) print "tools/unreached.allow: " s " is reached now; drop its line" > "/dev/stderr"
		exit bad
	}' tools/unreached.allow
