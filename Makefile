.PHONY: all build quick test bench bench-topo bench-bosco bench-faults \
	bench-runner bench-serve bench-intent bench-market bench-market-mech \
	bench-snapshots validate-bench profile clean

all: build

build:
	dune build

# Tier-1 gate: build everything and run the quick test cases only
# (skips the `Slow statistical/Monte-Carlo checks), plus the
# observability suites by name.
quick:
	dune build @quick @obs

# Full test suite: unit + property + golden + cram.
test:
	dune build
	dune runtest

bench:
	dune exec bench/main.exe

# Compact-core smoke: freeze + oracle-vs-compact enumerator sweep on a
# 1k-AS topology, verifying equal results and --jobs determinism (CI runs
# this too; `topo-full` adds the 10k and 50k sizes).
bench-topo:
	dune exec bench/main.exe -- topo

# BOSCO best-response kernel sweep: time per best response of the fast
# O(W) kernel vs the O(W²) reference of the test-only pan_oracle
# library at W ∈ {8..2048}, time, rounds and minor words per
# Service.negotiate through one workspace at W ∈ {8, 16, 24, 48}, plus
# the Service.trials --jobs determinism check; exits non-zero on any
# threshold or fingerprint mismatch (CI runs the `bosco-smoke` variant,
# capped at W = 128, through bench-snapshot-smoke).
bench-bosco:
	dune exec bench/main.exe -- bosco

# Supervised-runner smoke: the E1 kernel under injected faults (rate
# 0.1) with 5 retries must reproduce the fault-free fingerprint at -j1
# and -j4 and must actually exercise retries; exits non-zero otherwise
# (CI runs this too).
bench-faults:
	dune exec bench/main.exe -- faults

# Runner scaling table (bench part 4 alone, seconds rather than the full
# bench's minutes): the five ported experiment kernels sequentially and
# on 2- and 4-domain pools; exits non-zero unless every parallel result
# equals the sequential one.
bench-runner:
	dune exec bench/main.exe -- runner

# Resident-service sweep (bench part 11): queries/sec and latency
# percentiles under link churn on a 3k-AS topology, with the
# incremental-vs-refreeze and -j1/-j4 transcript fingerprint checks;
# exits non-zero on any mismatch (CI runs the `serve-smoke` variant
# through the bench-snapshot-smoke alias, which also schema-checks the
# emitted BENCH_serve.json).
bench-serve:
	dune exec bench/main.exe -- serve

# Intent-engine sweep (bench part 12): K-shortest candidate throughput
# at K = 1..32 over a 3k-AS compact core, deterministic probe failover
# under an injected fault spec, and the all-intent serve drain with the
# -j1/-j4 transcript fingerprint check; exits non-zero on any mismatch
# (CI runs the `intent-smoke` variant through the bench-snapshot-smoke
# alias, which also schema-checks the emitted BENCH_intent.json).
bench-intent:
	dune exec bench/main.exe -- intent

# Marketplace sweep (bench part 13): the full epoch loop — candidate
# enumeration, concurrent BOSCO negotiations, batch agreement splices —
# timed at -j1/-j2/-j4 in negotiations/sec, with fingerprint, re-run,
# and delta-oracle checks; exits non-zero on any mismatch (CI runs the
# `market-smoke` variant through the bench-snapshot-smoke alias, which
# also schema-checks the emitted BENCH_market.json).
bench-market:
	dune exec bench/main.exe -- market

# Mechanism comparison (bench part 14): the marketplace in Both mode —
# BOSCO and the Nash-Peering global-bargaining qualifier on shared
# epoch snapshots and identical candidate streams — timed at -j1/-j2/
# -j4, with per-epoch welfare / agreement-count / PoD comparison lines
# and the same fingerprint, re-run, and re-freeze-oracle checks as part
# 13; exits non-zero on any mismatch (CI runs the `market-mech-smoke`
# variant through the bench-snapshot-smoke alias, which also
# schema-checks the emitted BENCH_market_mech.json).
bench-market-mech:
	dune exec bench/main.exe -- market-mech

# Machine-readable bench trajectory: run the econ-kernel, topology-
# snapshot, BOSCO, serve, intent, market, and mechanism-comparison
# parts at smoke scale, emit BENCH_<part>.json for each, and
# re-validate the files through the schema checker (CI runs the same
# alias).
bench-snapshots:
	dune build @bench/bench-snapshot-smoke

# Schema-check every committed BENCH_<part>.json in the repo root
# through the CLI validator; exits non-zero on any malformed file.
validate-bench:
	dune exec bin/panagree.exe -- validate-bench $(wildcard BENCH_*.json)

# Real-clock profile of the Fig. 3/4 pipeline on the default synthetic
# topology: per-chunk durations and per-scenario path counters to stdout.
profile:
	dune exec bin/panagree.exe -- fig3 --jobs 4 --metrics -

clean:
	dune clean
