# Convenience aliases for the checks CI runs. `make check` is the full gate.

.PHONY: build test bench-test bench-smoke fmt clippy doc lint lint-sarif results examples attacks faults serve decode check bench

build:
	cargo build --release --workspace --locked

test:
	cargo test -q --workspace --locked

# The standalone benchmark package (its own workspace under benchmark/):
# wrapper-equivalence, golden-drift and BENCHMARK.json consistency tests.
bench-test:
	cargo test --manifest-path benchmark/Cargo.toml --locked --offline

# The benchmark binary end to end at one second a workload: every unit's
# oracle on the real workloads, then the traced replicas compared cell by
# cell through TimedMemory, then the held-out seed 1, whose attack and
# fault units check agz cells against the paper's claims and the fault
# model instead of the seed-0 goldens. Each run exits 1 if any oracle fails.
bench-smoke:
	cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- --seconds 1
	cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- --seconds 1 --trace 1
	cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- --seed 1 --seconds 1

fmt:
	cargo fmt --all --check

# Clippy with the root clippy.toml: every RawDram method outside the
# functional memories and HashMap/HashSet in any target are errors, and so
# are value-changing casts in tnpu-sim and tnpu-npu (set at their crate
# roots). Clippy re-lints when clippy.toml changes. See LINTS.md.
clippy:
	cargo clippy --workspace --all-targets --locked -- -D warnings

# Rustdoc gate: broken or private intra-doc links fail the build.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

# Workspace-policy linter for the rules clippy cannot state: path-scoped
# bans (wall clock, VersionTable), literal RNG seeds, bare arithmetic in
# accounting files, panics in the session core and unconsumed error
# variants; --deny-all turns every finding into a nonzero exit and
# --deny-unused-allows fails on stale suppression comments. See LINTS.md.
lint:
	cargo run -p tnpu-lint --release --locked -- --deny-all --deny-unused-allows

# SARIF 2.1.0 report for code-scanning upload (written to tnpu-lint.sarif).
lint-sarif:
	cargo run -p tnpu-lint --release --locked -- --format sarif > tnpu-lint.sarif

# Full figure output: the 14-model `experiments all` stdout must equal the
# committed results_full.txt byte for byte, and `check` must find every
# paper-shape invariant holding over all 14 models. Unlike `bench`, it
# appends no timing record.
results: build
	./target/release/experiments --threads 2 all > target/experiments_all.txt
	diff -u results_full.txt target/experiments_all.txt
	./target/release/experiments --threads 2 check

# The README walkthroughs: every crate example must run to exit 0.
examples:
	cargo build --release --workspace --examples --locked
	for e in crates/*/examples/*.rs; do \
		name=$$(basename $$e .rs); echo "#### example $$name"; \
		./target/release/examples/$$name || exit 1; \
	done

# Adversarial attack-injection matrix over the functional schemes; exits 1
# if any cell contradicts the paper's claims.
attacks:
	cargo run -p tnpu-bench --release --locked --bin attacks

# Environmental-fault resilience matrix (transient/persistent bit errors,
# DMA drops/stalls, crypto soft errors) with the recovery layer enabled;
# exits 1 if any protected scheme computed on faulty data.
faults:
	cargo run -p tnpu-bench --release --locked --bin faults

# Multi-tenant serving tables (tail latency / throughput with context
# switches charged through each scheme's engine) plus the attack matrix
# on preempted and co-resident contexts; exits 1 if any extended cell
# contradicts the claims or the stale-TLB window is open.
serve:
	cargo run -p tnpu-bench --release --locked --bin serve -- --quick

# Dynamic-dataflow crossover (autoregressive decode + training churn):
# sequence length x version limit x scheme with the tree-less scheme's
# epoch sweeps amortized in, joined with the attack and fault matrices
# on the decode model; exits 1 if either matrix contradicts its claims.
decode:
	cargo run -p tnpu-bench --release --locked --bin decode -- --quick

# Perf-trajectory harness: run the full experiment matrix and append one
# timing record (per-pool and total wall seconds, thread count, cell
# count) to BENCH_sweep.json. stdout still carries the byte-stable
# results; compare it against the checked-in golden output.
bench:
	cargo build --release -p tnpu-bench --locked
	./target/release/experiments --bench-json BENCH_sweep.json all > /tmp/tnpu_bench_out.txt
	diff -q results_full.txt /tmp/tnpu_bench_out.txt

check: build test bench-test bench-smoke fmt clippy doc lint results examples attacks faults serve decode
