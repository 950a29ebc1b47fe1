#!/usr/bin/env bash
# Caller probe: every `pub` fn, struct, enum, trait, type, const and static
# under crates/*/src (above its file's first `#[cfg(test)]`) must be used by a
# non-test build of the workspace or of the benchmark package outside its own
# file, or be listed with a reason in .github/caller-allowlist.txt.
#
# In a copy of the tree each such item gets `#[deprecated(note = "<file>::<name>")]`
# (`<name>` is `Type::item` inside an inherent impl) and every `use` gets
# `#[allow(deprecated)]`, so a re-export is not a caller. The copy's libraries,
# binaries and examples and the benchmark's binaries are then built offline:
# each "use of deprecated" warning is a use of the item its note names, in the
# file the warning points into. The compiler resolves the name, so an item
# called `len` or `next` is not kept alive by another type's method.
#
# An allowlist line names an item as it is printed (`Type::item`, or a free
# item's name) or a whole file, then gives the reason.
#
# Run from the repository root: bash .github/caller-probe.sh
set -euo pipefail

root="$(pwd)"
allow="$root/.github/caller-allowlist.txt"
copy="$(mktemp -d)"
trap 'rm -rf "$copy"' EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}/caller-probe"

tar -cf - --exclude=./.git --exclude=./target --exclude=./benchmark/target --exclude=./.bench_build . \
  | tar -xf - -C "$copy"
cd "$copy"

# Annotate. Items go to items.txt as `<file> <file>::<name>`.
find crates src examples benchmark/src -name '*.rs' | sort | while read -r f; do
  awk -v items="$copy/items.txt" '
    function self_type(s,   i, c, depth) {
      sub(/^[[:space:]]*impl[[:space:]]*/, "", s)
      if (substr(s, 1, 1) == "<") {
        for (i = 1; i <= length(s); i++) {
          c = substr(s, i, 1)
          if (c == "<") depth++
          else if (c == ">" && --depth == 0) break
        }
        s = substr(s, i + 1)
      }
      if (match(s, / for /)) s = substr(s, RSTART + 5)
      sub(/^[[:space:]&]+/, "", s); sub(/[<[:space:]{].*/, "", s); sub(/.*::/, "", s)
      return s
    }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / {
      match($0, /^[[:space:]]*/); print substr($0, 1, RLENGTH) "#[allow(deprecated)]"
    }
    !tests && FILENAME ~ /^crates\/[^\/]+\/src\// {
      if (impl != "" && $0 == impl_indent "}") impl = ""
      if (/^[[:space:]]*impl[[:space:]<]/) {
        impl = self_type($0); match($0, /^[[:space:]]*/); impl_indent = substr($0, 1, RLENGTH)
      }
      if (match($0, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr($0, RSTART, RLENGTH); sub(/.*[[:space:]]/, "", name)
        match($0, /^[[:space:]]*/); indent = substr($0, 1, RLENGTH)
        if (impl != "" && length(indent) > length(impl_indent)) name = impl "::" name
        print indent "#[deprecated(note = \"" FILENAME "::" name "\")]"
        print FILENAME, FILENAME "::" name >> items
      }
    }
    { print }
  ' "$f" > "$f.probe"
  mv "$f.probe" "$f"
done

# Build every non-test target; keep `<file using it> <note>` per warning.
uses() {
  sed -nE 's/^([^ :]+):[0-9]+:[0-9]+: warning: use of deprecated [^`]*`[^`]*`: (.*)$/\1 \2/p'
}
build() { "$@" --offline -q --message-format=short > build.log 2>&1 || { cat build.log; exit 1; }; }
build cargo build --workspace --lib --bins --examples
uses < build.log > uses.txt
(cd benchmark && build cargo build --bins)
uses < benchmark/build.log \
  | awk -v copy="$copy/" '{ if (index($1, copy) == 1) $1 = substr($1, length(copy) + 1); else $1 = "benchmark/" $1; print }' \
  >> uses.txt

awk -v allowlist="$allow" '
  FILENAME == allowlist {
    if ($0 ~ /^#/ || NF == 0) next
    if (NF < 2) { print "allowlist line without a reason: " $0; bad = 1 }
    listed[$1] = 1; next
  }
  FILENAME ~ /uses\.txt$/ { n = $2; sub(/::.*/, "", n); if ($1 != n) outside[$2] = 1; next }
  {
    key = $2; sub(/^[^:]*::/, "", key)
    if ($2 in outside) next
    if (key in listed) { used[key] = 1; next }
    if ($1 in listed) { used[$1] = 1; next }
    print "no caller outside its own file: " $2; bad = 1
  }
  END {
    for (k in listed) if (!(k in used)) { print "allowlisted but not flagged (drop its line): " k; bad = 1 }
    exit bad
  }
' "$allow" uses.txt items.txt
echo "caller probe: $(wc -l < items.txt) pub items, each with a caller outside its own file or a listed reason"
