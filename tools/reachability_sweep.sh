#!/usr/bin/env bash
# Linker reachability sweep: which echo:: library functions does any
# executable reach?
#
# Builds the tree at -O0 with no inlining, every inline function emitted
# (-fkeep-inline-functions, so header-inline code is swept too) and every
# function in its own section, links every executable with --gc-sections,
# and compares the echo:: functions the static libraries define against
# the ones that survive in the linked executables:
#
#   production  bench/, tools/, examples/ and perfbench's echo_perfbench
#   tests       tests/
#
# Prints the library functions that only tests reach (informational),
# then the ones that no executable reaches at all; exits 1 when that
# second list is not empty.  Not swept: file-local functions (static or
# in an anonymous namespace), lambdas, special members (default, copy
# and move constructors and assignments, destructors; usually
# compiler-generated) and std:: templates instantiated on echo types.
# A template's instantiations count as one function.
#
# Usage: tools/reachability_sweep.sh [BUILD_DIR]   (default: build-sweep)
# Needs GCC (-fkeep-inline-functions), binutils' nm and python3.  JOBS
# sets the build parallelism (default: nproc).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=${1:-$root/build-sweep}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
jobs=${JOBS:-$(nproc)}
flags="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections"

cmake -B "$dir" -S "$root" -DCMAKE_BUILD_TYPE=None -DECHO_NATIVE_ARCH=OFF \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$dir/sweep-configure.log"
cmake --build "$dir" -j "$jobs" > "$dir/sweep-build.log"

# perfbench is its own CMake project over the same sources; link its
# runner against the libraries built above instead of building src twice.
mapfile -t libs < <(find "$dir/src" -name 'libecho_*.a' | sort)
"${CXX:-g++}" -std=c++20 $flags -I"$root/src" "$root"/perfbench/*.cc \
    -o "$dir/echo_perfbench" -Wl,--gc-sections \
    -Wl,--start-group "${libs[@]}" -Wl,--end-group -pthread

# ELF executables under the given build subdirectories.
executables() {
    local sub f
    for sub in "$@"; do
        find "$dir/$sub" -path '*/CMakeFiles' -prune -o -type f \
            -perm -u+x -print
    done | while read -r f; do
        if [ "$(head -c 4 "$f" | tail -c 3)" = "ELF" ]; then echo "$f"; fi
    done
}

# Demangled global text symbols (T, W) defined in the inputs.
symbols() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; print substr($0, 3) }'
}

out="$dir/sweep"
mkdir -p "$out"
mapfile -t prod < <(executables bench tools examples)
prod+=("$dir/echo_perfbench")
mapfile -t tests < <(executables tests)
symbols "${libs[@]}" > "$out/library.sym"
symbols "${prod[@]}" > "$out/production.sym"
symbols "${tests[@]}" > "$out/tests.sym"

echo "swept ${#prod[@]} production and ${#tests[@]} test executables"
python3 - "$out" <<'EOF'
import sys

out = sys.argv[1]


def split(sym):
    """(qualified name, parameter list) of a demangled function symbol,
    without a template function's return type."""
    depth, start = 0, 0
    for i, c in enumerate(sym):
        if sym.startswith("operator", i) and (i == 0 or sym[i - 1] in ": "):
            paren = i + 10 if sym.startswith("operator()", i) else sym.find("(", i)
            return sym[start:paren], sym[paren:]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        elif c == "(" and depth == 0:
            return sym[start:i], sym[i:]
    return sym[start:], ""


def swept(sym):
    name, params = split(sym)
    if not name.startswith("echo::"):
        return False
    if "(anonymous namespace)" in name or "{lambda" in name:
        return False
    parts = name.split("::")
    owner, last = "::".join(parts[:-1]), parts[-1]
    params = params.split(")")[0] + ")"
    copy_or_move = {f"({owner}&&)", f"({owner} const&)"}
    if last.startswith("~"):
        return False
    if last == parts[-2] and params in copy_or_move | {"()"}:
        return False
    if last == "operator=" and params in copy_or_move:
        return False
    return True


def key(sym):
    """A template counts as one function, reached when any of its
    instantiations is."""
    name, _ = split(sym)
    if "<" not in name:
        return sym
    base, depth = "", 0
    for c in name:
        depth += c == "<"
        if depth == 0:
            base += c
        depth -= c == ">"
    return base + "<...>"


def load(path):
    with open(path) as f:
        return {key(s) for s in (line.rstrip("\n") for line in f)
                if swept(s)}


library = load(f"{out}/library.sym")
production = load(f"{out}/production.sym")
tests = load(f"{out}/tests.sym")
test_only = sorted((library & tests) - production)
unreached = sorted(library - production - tests)
print(f"{len(library)} library functions")
print(f"test-only library functions: {len(test_only)}")
for s in test_only:
    print("  " + s)
print(f"library functions reached by no executable: {len(unreached)}")
for s in unreached:
    print("  " + s)
sys.exit(1 if unreached else 0)
EOF
