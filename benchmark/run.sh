#!/usr/bin/env bash
# Builds the program and the benchmark from source, then runs one workload.
#
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); the last line of standard output is the JSON
# result. Exits non-zero, without a result, when the sources are missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [[ ! -f Cargo.toml || ! -d crates/bench ]]; then
    echo "run.sh: the program sources are not in $root" >&2
    exit 2
fi

# The daemon and the shard worker are binaries of the repository workspace;
# the benchmark binary is its own package. Both land in the same directory,
# where the benchmark looks for its siblings.
cargo build --release --quiet --offline -p themis-bench \
    --bin themis-serve --bin shard-worker >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2

# Not `exec`: the benchmark reads the peak memory of the processes it
# reaps, and a process replacing this shell would inherit the build's.
"$CARGO_TARGET_DIR/release/themis-e2e-bench" "$@"
