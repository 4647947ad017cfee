#!/usr/bin/env bash
# Transport-chaos soak: serve the platform over real TCP behind the
# hardened (overload-protected) server, then run the full HS1 attack
# through ChaosTransport + ResilientExchange while background load
# pushes the server into sustained shedding — once per seed, across a
# seed sweep. Every seed must finish with Table 4 byte-identical to the
# fault-free baseline, zero server panics, zero double-sent POSTs, and
# closed request ledgers across Effort / crawler / chaos / server /
# route accounting. Headline stats (sheds, drain latency, chaos faults,
# admitted p99) are appended to BENCH_soak.json at the workspace root
# (the tiny smoke scenario prints them instead).
#
# Tunables:
#   SOAK_SEEDS     number of seeds to sweep (default 8)
#   SOAK_SCENARIO  "hs1" (full attack, default) or "tiny" (smoke)
#
# Offline-safe: all dependencies resolve to the vendored path stubs.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

SOAK_SEEDS="${SOAK_SEEDS:-8}"
SOAK_SCENARIO="${SOAK_SCENARIO:-hs1}"
export SOAK_SEEDS SOAK_SCENARIO

echo "==> soak: ${SOAK_SCENARIO} scenario, ${SOAK_SEEDS} seeds -> BENCH_soak.json"
cargo run --release --example soak

echo "Soak complete."
