#!/usr/bin/env bash
# Builds the benchmark package (offline, release) and runs `workloads` with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload tmk8 --seed 0 --seconds 10 --trace 0
#
# Run it from the repository root. The build honours CARGO_TARGET_DIR and
# otherwise lands in benchmark/target; results and traces go to
# <target>/bench-out unless --out-dir says otherwise.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
build=(cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml")

"${build[@]}" --bin workloads
# `probes` uses a much wider slice of the repository's API; if a refactor
# breaks it, the end-to-end benchmark must still run. Only `--trace 1`
# needs it, and says so if it is missing.
"${build[@]}" --bin probes || echo "run.sh: the probes binary did not build; --trace 1 will fail" >&2

exec "$target/release/workloads" "$@"
