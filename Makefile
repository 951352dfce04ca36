# Convenience aliases for the checks CI runs. `make check` is the full gate.

.PHONY: build test bench-test fmt clippy doc lint lint-sarif results attacks faults serve decode check bench

build:
	cargo build --release --workspace --locked

test:
	cargo test -q --workspace --locked

# The standalone benchmark package (its own workspace under benchmark/):
# wrapper-equivalence, golden-drift and BENCHMARK.json consistency tests.
bench-test:
	cargo test --manifest-path benchmark/Cargo.toml --locked --offline

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets --locked -- -D warnings

# Rustdoc gate: broken or private intra-doc links fail the build.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

# Workspace-policy linter (determinism / unit-safety / security-hygiene
# rules plus the call-graph semantic families); --deny-all turns every
# finding into a nonzero exit and --deny-unused-allows fails on stale
# suppression comments. See LINTS.md.
lint:
	cargo run -p tnpu-lint --release --locked -- --deny-all --deny-unused-allows

# SARIF 2.1.0 report for code-scanning upload (written to tnpu-lint.sarif).
lint-sarif:
	cargo run -p tnpu-lint --release --locked -- --format sarif > tnpu-lint.sarif

# Full figure output: the 14-model `experiments all` stdout must equal the
# committed results_full.txt byte for byte. Unlike `bench`, it appends no
# timing record.
results: build
	./target/release/experiments --threads 2 all > target/experiments_all.txt
	diff -u results_full.txt target/experiments_all.txt

# Adversarial attack-injection matrix over the functional schemes;
# --deny-undetected fails if any cell contradicts the paper's claims.
attacks:
	cargo run -p tnpu-bench --release --locked --bin attacks -- --deny-undetected

# Environmental-fault resilience matrix (transient/persistent bit errors,
# DMA drops/stalls, crypto soft errors) with the recovery layer enabled;
# --deny-corrupted fails if any protected scheme computed on faulty data.
faults:
	cargo run -p tnpu-bench --release --locked --bin faults -- --deny-corrupted

# Multi-tenant serving tables (tail latency / throughput with context
# switches charged through each scheme's engine) plus the attack matrix
# on preempted and co-resident contexts; --deny-undetected fails if any
# extended cell contradicts the claims or the stale-TLB window is open.
serve:
	cargo run -p tnpu-bench --release --locked --bin serve -- --quick --deny-undetected

# Dynamic-dataflow crossover (autoregressive decode + training churn):
# sequence length x version limit x scheme with the tree-less scheme's
# epoch sweeps amortized in, joined with the attack and fault matrices
# on the decode model; both deny gates must hold.
decode:
	cargo run -p tnpu-bench --release --locked --bin decode -- --quick --deny-undetected --deny-corrupted

# Perf-trajectory harness: run the full experiment matrix and append one
# timing record (per-pool and total wall seconds, thread count, cell
# count) to BENCH_sweep.json. stdout still carries the byte-stable
# results; compare it against the checked-in golden output.
bench:
	cargo build --release -p tnpu-bench --locked
	./target/release/experiments --bench-json BENCH_sweep.json all > /tmp/tnpu_bench_out.txt
	diff -q results_full.txt /tmp/tnpu_bench_out.txt

check: build test bench-test fmt clippy doc lint results attacks faults serve decode
