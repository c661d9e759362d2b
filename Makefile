.PHONY: all build test check smoke trace-report-smoke chaos-smoke soak-smoke runner-smoke reproduce-smoke attack-smoke experiments-smoke audit-smoke baseline-smoke bench bench-parallel bench-obs bench-check bench-chaos bench-scale bench-scale-full diff-bench diff-bench-only pin-bench-parallel pin-baseline diff-baseline profile clean

all: build

build:
	dune build @all

test:
	dune runtest

check:
	dune build @all && dune runtest

# End-to-end smoke: short run writing a run report, then assert its
# trace parses (inspect exits non-zero on any bad record) and its
# metrics CSV contains data rows beyond the header. Each run reports
# into DIR/seed<N>/ (default seed 1).
smoke: build
	rm -rf /tmp/smoke-report
	dune exec bin/lockss_sim.exe -- run --years 0.1 \
	  --report /tmp/smoke-report --sample-interval 7d
	dune exec bin/lockss_sim.exe -- inspect /tmp/smoke-report/seed1/trace.ntrace
	@test "$$(wc -l < /tmp/smoke-report/seed1/metrics.csv)" -gt 1 || \
	  { echo "smoke: /tmp/smoke-report/seed1/metrics.csv has no sample rows" >&2; exit 1; }
	@test -s /tmp/smoke-report/manifest.json || \
	  { echo "smoke: no manifest written" >&2; exit 1; }
	@echo "smoke: OK"

# Offline-analyzer smoke: a short fault-free baseline reported at debug
# level must reconstruct into spans and a ledger with zero anomalies
# (inspect exits non-zero on any invalid record, anomaly or violation).
# The binary trace is then converted to JSONL: inspect must pass on it
# too and its --json report must match the binary one byte-for-byte,
# and ntrace -> jsonl -> ntrace -> jsonl must reproduce the first JSONL
# exactly.
trace-report-smoke: build
	rm -rf /tmp/tr-smoke && mkdir -p /tmp/tr-smoke
	dune exec bin/lockss_sim.exe -- run --years 0.2 --trace-level debug \
	  --report /tmp/tr-smoke/report
	dune exec bin/lockss_sim.exe -- inspect /tmp/tr-smoke/report/seed1/trace.ntrace
	@grep -q '"ok": *true' /tmp/tr-smoke/report/seed1/ledger.json || \
	  { echo "trace-report-smoke: ledger did not reconcile with metrics" >&2; exit 1; }
	@test -s /tmp/tr-smoke/report/seed1/spans.jsonl || \
	  { echo "trace-report-smoke: no spans written" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- trace-convert /tmp/tr-smoke/report/seed1/trace.ntrace \
	  /tmp/tr-smoke/trace.jsonl
	dune exec bin/lockss_sim.exe -- inspect /tmp/tr-smoke/trace.jsonl
	dune exec bin/lockss_sim.exe -- inspect --json /tmp/tr-smoke/report/seed1/trace.ntrace \
	  > /tmp/tr-smoke/inspect-binary.json
	dune exec bin/lockss_sim.exe -- inspect --json /tmp/tr-smoke/trace.jsonl \
	  > /tmp/tr-smoke/inspect-jsonl.json
	cmp /tmp/tr-smoke/inspect-binary.json /tmp/tr-smoke/inspect-jsonl.json || \
	  { echo "trace-report-smoke: JSONL trace analyzed differently from binary" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- trace-convert /tmp/tr-smoke/trace.jsonl /tmp/tr-smoke/back.ntrace
	dune exec bin/lockss_sim.exe -- trace-convert /tmp/tr-smoke/back.ntrace /tmp/tr-smoke/back.jsonl
	cmp /tmp/tr-smoke/trace.jsonl /tmp/tr-smoke/back.jsonl || \
	  { echo "trace-report-smoke: ntrace -> jsonl -> ntrace -> jsonl is not the identity" >&2; exit 1; }
	@echo "trace-report-smoke: OK"

# Fault-injection smoke: a small deployment under the acceptance fault
# mix; the chaos command exits non-zero if any invariant fails.
chaos-smoke: build
	dune exec bin/lockss_sim.exe -- chaos --peers 15 --aus 2 --quorum 4 \
	  --years 1 --seed 3 \
	  --loss 0.05 --jitter 0.5 --dup 0.02 --churn 0.01 --fault-seed 7
	@echo "chaos-smoke: OK"

# Soak smoke: a small multi-seed sweep under the full Byzantine fault
# mix (loss, jitter, duplication, churn, corruption, replay, stale
# delivery, stray injection). Fails if any seed sees a handler
# exception, an auditor violation, a leaked timer/session, or zero
# progress; the JSON report records the per-seed verdicts either way.
soak-smoke: build
	dune exec bin/lockss_sim.exe -- soak --peers 15 --aus 2 --quorum 4 \
	  --years 1 --seed 1 --seeds 8 --fault-seed 7 --json soak-report.json
	@echo "soak-smoke: OK"

# Parallel-runner smoke: the same sweep with 1 and 2 worker domains must
# render byte-identical tables (the Runner determinism contract).
runner-smoke: build
	dune exec bin/lockss_sim.exe -- reproduce fig3 --peers 12 --aus 1 \
	  --quorum 3 --years 0.5 --runs 2 --seed 3 --jobs 1 > /tmp/runner-serial.txt
	dune exec bin/lockss_sim.exe -- reproduce fig3 --peers 12 --aus 1 \
	  --quorum 3 --years 0.5 --runs 2 --seed 3 --jobs 2 > /tmp/runner-parallel.txt
	cmp /tmp/runner-serial.txt /tmp/runner-parallel.txt || \
	  { echo "runner-smoke: parallel output differs from serial" >&2; exit 1; }
	@echo "runner-smoke: OK"

# Reproduce smoke: every figure/table target at micro scale must exit 0,
# write its --csv table and, for the figures, its own .dat/.gp plot
# files (table1 has no plot). One output dir per target, so a figure
# sharing a sweep with another cannot mask a missing file.
REPRODUCE_TARGETS = fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1
reproduce-smoke: build
	rm -rf /tmp/reproduce-smoke
	@for t in $(REPRODUCE_TARGETS); do \
	  d=/tmp/reproduce-smoke/$$t; mkdir -p $$d; \
	  dune exec bin/lockss_sim.exe -- reproduce $$t --peers 15 --aus 2 --quorum 4 \
	    --years 1 --runs 2 --seed 5 --csv $$d/$$t.csv --plot $$d > $$d/stdout.txt || \
	    { echo "reproduce-smoke: reproduce $$t failed" >&2; exit 1; }; \
	  expected="$$t.csv"; \
	  [ $$t = table1 ] || expected="$$expected $$t.dat $$t.gp"; \
	  for f in $$expected; do \
	    test -s $$d/$$f || \
	      { echo "reproduce-smoke: reproduce $$t wrote no $$f" >&2; exit 1; }; \
	  done; \
	done
	@echo "reproduce-smoke: OK"

# Attack smoke: every `run --attack` kind at micro scale, with the
# online auditor attached, must report zero violations; the subversion
# and reciprocity experiments must exit 0 at the same scale.
ATTACK_KINDS = none stoppage flood vote-flood brute-intro brute-remaining brute-none
ATTACK_SCALE = --peers 15 --aus 2 --quorum 4 --years 1 --seed 5
attack-smoke: build
	@for k in $(ATTACK_KINDS); do \
	  dune exec bin/lockss_sim.exe -- run $(ATTACK_SCALE) --attack $$k --check \
	    | grep -q '^violations: 0$$' || \
	    { echo "attack-smoke: run --attack $$k reported violations" >&2; exit 1; }; \
	done
	dune exec bin/lockss_sim.exe -- subversion $(ATTACK_SCALE) > /dev/null
	dune exec bin/lockss_sim.exe -- reciprocity $(ATTACK_SCALE) > /dev/null
	@echo "attack-smoke: OK"

# Experiments smoke: the defense ablation table, the Section 9
# extension experiments and the chaos ablation must each exit 0 at the
# attack smoke's micro scale.
experiments-smoke: build
	dune exec bin/lockss_sim.exe -- ablate $(ATTACK_SCALE) > /dev/null
	dune exec bin/lockss_sim.exe -- extensions $(ATTACK_SCALE) > /dev/null
	dune exec bin/lockss_sim.exe -- chaos --ablation $(ATTACK_SCALE) > /dev/null
	@echo "experiments-smoke: OK"

# Invariant-audit smoke: a fault-free run with the online auditor
# attached must report zero violations (in-sim and on offline replay of
# its trace by inspect), and a seeded mutation of the same trace must
# make exactly its target invariant fire (inspect exits non-zero on any
# violation).
audit-smoke: build
	rm -rf /tmp/audit-smoke
	dune exec bin/lockss_sim.exe -- run --years 0.3 --check \
	  --report /tmp/audit-smoke --trace-level debug \
	  | grep -q '^violations: 0$$' || \
	  { echo "audit-smoke: live auditor reported violations" >&2; exit 1; }
	dune exec bin/lockss_sim.exe -- inspect /tmp/audit-smoke/seed1/trace.ntrace \
	  > /tmp/audit-smoke/clean.txt
	grep -q '^violations: 0$$' /tmp/audit-smoke/clean.txt || \
	  { echo "audit-smoke: offline audit reported violations" >&2; exit 1; }
	! dune exec bin/lockss_sim.exe -- inspect /tmp/audit-smoke/seed1/trace.ntrace \
	  --mutate refractory-bypass > /tmp/audit-smoke/mutated.txt 2>&1
	grep -q '^violations: 1$$' /tmp/audit-smoke/mutated.txt || \
	  { echo "audit-smoke: mutated trace did not raise exactly one violation" >&2; exit 1; }
	@echo "audit-smoke: OK"

# Every gated benchmark, each writing its BENCH_*.json artifact; the
# paper's figures and tables are `lockss_sim reproduce`, not a bench.
bench: bench-parallel bench-obs bench-check bench-chaos bench-scale

# Serial vs parallel wall-clock for the heavier sweeps, recorded as JSON.
# CI arms the multicore criteria through BENCH_PARALLEL_FLAGS:
# `--require-parallel` (nonzero exit when <2 effective workers) and
# `--min-speedup 0.75` (each target must reach 0.75 x its usable
# parallelism, min of jobs and the sweep width).
BENCH_PARALLEL_FLAGS ?=
bench-parallel: build
	dune exec bench/main.exe -- parallel --json BENCH_parallel.json \
	  $(BENCH_PARALLEL_FLAGS)

# Observability overhead: tracing disabled vs a warn-level run report
# vs the full debug report, recorded as JSON.
bench-obs: build
	dune exec bench/main.exe -- obs --json BENCH_obs.json

# Invariant-auditor overhead: the same micro simulation with the online
# auditor detached vs attached, recorded as JSON.
bench-check: build
	dune exec bench/main.exe -- check --json BENCH_check.json

# Byzantine-fault overhead: the same micro simulation fault-free vs
# under the full default chaos mix, recorded as JSON.
bench-chaos: build
	dune exec bench/main.exe -- chaos --json BENCH_chaos.json

# Population scale sweep, CI shape: 100 -> 1k peers only, skipping the
# ~29s 10k-peer setup. The full sweep lives in bench-scale-full.
bench-scale: build
	dune exec bench/main.exe -- scale --points 100,1000 --json BENCH_scale.json

# Full population scale sweep: 100 -> 1k -> 10k peers; per-event cost
# and resident memory per point, recorded (and gated) separately from
# the reduced CI sweep.
bench-scale-full: build
	dune exec bench/main.exe -- scale --json BENCH_scale_full.json
	dune exec bench/main.exe -- diff-bench --threshold 75 \
	  $(BENCH_SCALE_FULL_PAIR)

# The baseline/current artifact pairs the regression gate diffs — the
# single source of truth for both `make diff-bench` here and the CI
# gate steps (`make diff-bench-only`).
BENCH_PAIRS = \
  BENCH_parallel.baseline.json BENCH_parallel.json \
  BENCH_obs.baseline.json BENCH_obs.json \
  BENCH_check.baseline.json BENCH_check.json \
  BENCH_chaos.baseline.json BENCH_chaos.json
BENCH_SCALE_PAIR = BENCH_scale.baseline.json BENCH_scale.json
BENCH_SCALE_FULL_PAIR = BENCH_scale_full.baseline.json BENCH_scale_full.json

# Bench regression gate: re-run the benchmarks and diff the fresh JSON
# against the pinned baselines; exits non-zero on any >25% regression in
# a tracked (overhead/speedup/slowdown) metric. The scale pair gates at
# a looser 75%: its slowdown ratios fold in cache-hierarchy effects that
# vary across machines, while a genuine per-event cost-curve regression
# (O(peers) work per event) overshoots any plausible threshold.
diff-bench: bench-parallel bench-obs bench-check bench-chaos bench-scale diff-bench-only

# The gate alone, against artifacts produced earlier (CI runs the bench
# targets as separate steps so their logs stay attributable).
diff-bench-only:
	dune exec bench/main.exe -- diff-bench $(BENCH_PAIRS)
	dune exec bench/main.exe -- diff-bench --threshold 75 $(BENCH_SCALE_PAIR)

# Re-pin the parallel-speedup baseline from a fresh run. Meant for a
# multicore host (CI's repin-bench workflow): a pin taken on a 1-core
# machine is degenerate and disarms the speedup gate.
pin-bench-parallel:
	$(MAKE) bench-parallel BENCH_PARALLEL_FLAGS="--require-parallel $(BENCH_PARALLEL_FLAGS)"
	cp BENCH_parallel.json BENCH_parallel.baseline.json
	@echo "pinned BENCH_parallel.baseline.json — commit it to arm the speedup gate"

# -- Paper-figure result baselines --------------------------------------

# Pin the paper-figure golden baselines (baselines/*.baseline.json) at
# the CLI's default scale, then verify the pins round-trip clean.
pin-baseline: build
	dune exec bin/lockss_sim.exe -- pin-baseline
	dune exec bin/lockss_sim.exe -- diff-baseline

# Diff current figure results against the pinned golden baselines;
# exits non-zero on any drift past tolerance.
diff-baseline: build
	dune exec bin/lockss_sim.exe -- diff-baseline

# Result-regression smoke: pin a micro-scale baseline into a scratch
# dir, check the clean diff passes, then perturb one pinned value and
# check the diff fails with a drift verdict.
baseline-smoke: build
	rm -rf /tmp/baseline-smoke && mkdir -p /tmp/baseline-smoke
	dune exec bin/lockss_sim.exe -- pin-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke
	dune exec bin/lockss_sim.exe -- diff-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke
	awk 'f==0 && /"value":/ { sub(/"value":[-0-9.eE+]+/, "\"value\":99.5"); f=1 } { print }' \
	  /tmp/baseline-smoke/fig3.baseline.json > /tmp/baseline-smoke/fig3.perturbed.json
	mv /tmp/baseline-smoke/fig3.perturbed.json /tmp/baseline-smoke/fig3.baseline.json
	! dune exec bin/lockss_sim.exe -- diff-baseline fig3 \
	  --peers 15 --aus 2 --quorum 4 --years 1 --baseline-dir /tmp/baseline-smoke \
	  > /tmp/baseline-smoke/drift.txt 2>&1
	grep -q 'DRIFT' /tmp/baseline-smoke/drift.txt || \
	  { echo "baseline-smoke: perturbed pin did not report drift" >&2; exit 1; }
	@echo "baseline-smoke: OK"

# Engine profile of the baseline, pipe-stoppage and brute-force
# scenarios at the CLI's default scale: event counts, queue pressure and
# setup/run CPU per run, in a warn-level run report per attack
# (profile-<attack>/seed1/profile.json; the attacked runs also profile
# their no-attack side under profile-<attack>/baseline/).
PROFILE_ATTACKS = none stoppage brute-remaining
profile: build
	for attack in $(PROFILE_ATTACKS); do \
	  dune exec bin/lockss_sim.exe -- run --attack $$attack --trace-level warn \
	    --report profile-$$attack || exit 1; \
	done

clean:
	dune clean
