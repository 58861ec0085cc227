#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. With no arguments it
# runs every workload untraced and then traced; see README.md for the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

PERFBENCH_GIT_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
PERFBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export PERFBENCH_GIT_COMMIT PERFBENCH_RUSTC

exec "$target/release/reactdb-perfbench" --out "$here/out" "$@"
