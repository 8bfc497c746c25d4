#!/usr/bin/env bash
# Builds the shipped release binaries (dqct, dqctd) and the benchmark, then
# runs the benchmark with the given arguments:
#
#   bash dqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target).
set -euo pipefail
root="$(pwd)"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p dqct-cli -p dqctd
cargo build --release --offline --quiet --manifest-path dqbench/Cargo.toml
# Not exec: the benchmark reads its children's peak RSS, which must not
# include the builds above.
"$target/release/dqbench" --bin-dir "$target/release" "$@"
