#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# Everything here is offline-safe — dependencies resolve to the vendored
# path stubs (see vendor/stubs/README.md), so no registry access happens.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, deny warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> every example runs (release)"
for example in examples/*.rs; do
    cargo run --release --quiet --example "$(basename "$example" .rs)" > /dev/null
done

# The gated experiments write no history: the BENCH_*.json files must
# come out byte-identical.
bench_sums="$(sha256sum BENCH_*.json)"

echo "==> HS1 sweeps with their gates (arms race, freshness, chaos, worker scaling, trace forensics, overload soak) + tiny metro + crash-recovery kill sweep and journal ceiling"
cargo run --release -p hsp-experiments -- arms-race freshness chaos-sweep worker-scaling trace-forensics soak metro crash-recovery

echo "==> the gated experiments left BENCH_*.json unchanged"
echo "$bench_sums" | sha256sum --check --quiet

# The attackbench build must find its committed lock file complete: a
# dependency edge missing from it would be added on every build.
lock_sum="$(sha256sum attackbench/Cargo.lock)"

echo "==> attackbench self-test (pinned tiny outcomes, live state digest, world_at replay)"
cargo run --release --offline --quiet --manifest-path attackbench/Cargo.toml -- --self-test

echo "==> the attackbench build left attackbench/Cargo.lock unchanged"
echo "$lock_sum" | sha256sum --check --quiet

echo "All checks passed."
