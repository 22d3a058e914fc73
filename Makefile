PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-smoke bench-guard federation-bench-smoke perfbench-check digest-check trace-smoke examples-smoke federation-smoke mpc-smoke gym-smoke service-smoke resume-smoke cli-smoke experiments clean-cache

test:
	$(PYTHON) -m pytest tests/ -q

## Run every example script end-to-end at a small tick count.
examples-smoke:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		WILLOW_EXAMPLE_TICKS=12 timeout 120 $(PYTHON) $$script > /dev/null; \
	done; echo "all examples OK"

## Geo-federation smoke: the follow-the-sun example plus a tiny
## 2-site sweep through the CLI subcommand.
federation-smoke:
	@set -e; \
	WILLOW_EXAMPLE_TICKS=12 timeout 120 \
		$(PYTHON) examples/federated_datacenters.py > /dev/null; \
	timeout 120 $(PYTHON) -m repro.cli federation \
		--sites 2 --ticks 24 --policy proportional > /dev/null; \
	timeout 120 $(PYTHON) -m repro.cli federation \
		--sites 2 --ticks 24 --battery 500:100 \
		--policy greedy-greenest > /dev/null; \
	echo "federation smoke OK"

## Predictive-federation (MPC) smoke: a tiny anti-correlated-solar run
## asserting predictive lookahead strictly reduces dropped demand vs
## proportional at equal-or-lower WAN energy with zero thermal
## violations (both with and without cooling actuation), plus a CLI
## pass through --policy predictive --horizon/--cooling.
mpc-smoke:
	@set -e; \
	timeout 300 $(PYTHON) -c \
		"from repro.experiments.fig_predictive import smoke; smoke()"; \
	timeout 120 $(PYTHON) -m repro.cli federation \
		--sites 2 --ticks 24 --battery 500:100 \
		--policy predictive --horizon 3 --cooling > /dev/null; \
	echo "mpc smoke OK"

## Gym smoke: train the CEM scheduler on the seeded episode and assert
## the CI contract (beats neutral, never loses to proportional on
## dropped demand, zero thermal violations on every row), check the
## env-step overhead stays under the 10% bound, and pass the gym CLI
## subcommand end-to-end.
gym-smoke:
	@set -e; \
	timeout 300 $(PYTHON) -c \
		"from repro.gym.evaluate import smoke; smoke()"; \
	timeout 300 $(PYTHON) -m pytest benchmarks/test_bench_gym.py -q; \
	timeout 300 $(PYTHON) -m repro.cli gym \
		--windows 12 --iterations 1 --population 4 --no-bandit > /dev/null; \
	echo "gym smoke OK"

## Full performance run: writes BENCH_tick.json / BENCH_sweep.json.
bench:
	$(PYTHON) -m repro.cli bench

## Tier-1 tests + a smoke-sized perf run (same JSON schema) in one go.
## The smoke JSON goes to a temporary directory: the committed
## BENCH_*.json stay the baseline that the guards below compare against.
bench-smoke:
	$(PYTHON) -m pytest tests/ -x -q
	@set -e; dir=$$(mktemp -d); \
	$(PYTHON) -m repro.cli bench --quick --out $$dir; \
	rm -rf $$dir

## Regression guard against the recorded BENCH_tick.json.
bench-guard:
	$(PYTHON) -m pytest benchmarks/test_bench_hotpath.py benchmarks/test_bench_trace.py -q

## Federation-coordinator guard: fused-site equivalence and resume
## tests + the federation section of the perf regression guard
## (quick-sized fresh measurement).
federation-bench-smoke:
	$(PYTHON) -m pytest tests/test_federation_vectorized.py -q
	$(PYTHON) -m pytest tests/test_checkpoint.py -q -k federation
	$(PYTHON) -m pytest benchmarks/test_bench_federation.py -q

## The benchmark's own checks (perfbench/): each workload once, traced,
## with a short window -- correctness checks, decision digests and the
## per-layer call-count guard.  run.py exits 0 for a single workload
## whatever the result, so the verdict is read off its last JSON line.
perfbench-check:
	@set -e; for w in fleet-steady solar-churn live-ingest; do \
		out=$$(timeout 900 $(PYTHON) perfbench/run.py --workload $$w \
			--seed 7 --seconds 2 --trace 1); \
		echo "$$out" | tail -n 1 | $(PYTHON) -c \
			"import json, sys; sys.exit(not json.loads(sys.stdin.read())['correct'])" \
			|| { echo "$$out"; echo "perfbench $$w: checks failed"; exit 1; }; \
		echo "perfbench $$w: checks OK"; \
	done

## Decision digests, pinned: the batch workloads each run once at seed
## 7 for a one-second window, and the single-site paper simulation runs
## 30 checkpointed ticks at seed 7 on the scalar and the array
## controller; each must print the digest below, so a change that moves
## any of their decisions fails.
DIGEST_FLEET_STEADY := 3520e2617d930130cec9f1a6ab5662d599aef411f1af094c6e8dccf0181868c2
DIGEST_SOLAR_CHURN := 47b10aa43f21ae0206daf69e975fb77f0203ecd02de938bf1e60ee794f86df4b
DIGEST_SINGLE_SITE := 9e83fca0d0da7cec0a2787a8d716b27b0b69ee035669e981f38dd59823fdd7c9
DIGEST_SINGLE_SITE_VECTORIZED := 3dfef83da8b35b7287302e662827240956fec167b741fdd29dca8cc93d98b379

digest-check:
	@set -e; for pinned in fleet-steady=$(DIGEST_FLEET_STEADY) \
		solar-churn=$(DIGEST_SOLAR_CHURN); do \
		w=$${pinned%%=*}; want=$${pinned#*=}; \
		got=$$(timeout 900 $(PYTHON) perfbench/run.py --workload $$w \
			--seed 7 --seconds 1 | sed -n 's/.*decision digest //p'); \
		[ "$$got" = "$$want" ] \
			|| { echo "digest-check $$w: printed '$$got', pinned $$want"; exit 1; }; \
		echo "digest-check $$w: $$got OK"; \
	done; \
	dir=$$(mktemp -d); \
	for pinned in single-site=$(DIGEST_SINGLE_SITE) \
		single-site-vectorized=$(DIGEST_SINGLE_SITE_VECTORIZED); do \
		w=$${pinned%%=*}; want=$${pinned#*=}; \
		case $$w in *-vectorized) flag=--vectorized;; *) flag=;; esac; \
		got=$$(timeout 300 $(PYTHON) -m repro.cli checkpoint $$dir/$$w \
			--ticks 30 --seed 7 $$flag | sed -n 's/^decision digest: //p'); \
		[ "$$got" = "$$want" ] \
			|| { echo "digest-check $$w: printed '$$got', pinned $$want"; rm -rf $$dir; exit 1; }; \
		echo "digest-check $$w: $$got OK"; \
	done; \
	rm -rf $$dir

## Willow-as-a-service smoke: a short live run (TCP gateway + wall-clock
## ticks + self-generated load) whose audit log is then replayed offline
## -- the replay exits non-zero unless it is bit-exact with the live run.
service-smoke:
	@set -e; audit=$$(mktemp -d)/audit.jsonl; \
	timeout 120 $(PYTHON) -m repro.cli serve $$audit \
		--ticks 8 --tick-seconds 0.1 --load 8000 --seed 11; \
	timeout 120 $(PYTHON) -m repro.cli replay $$audit --summary; \
	timeout 120 $(PYTHON) -m repro.cli serve $$audit \
		--ticks 4 --tick-seconds 0.05 --controller vectorized --no-listen; \
	timeout 120 $(PYTHON) -m repro.cli replay $$audit; \
	rm -rf $$(dirname $$audit); echo "service live/replay parity OK"

## Crash-recovery drill: kill -9 a live checkpointed run mid-flight,
## corrupt the newest checkpoint, recover from the previous valid one
## plus the audit tail, and verify the combined audit log replays
## bit-exactly against the recovered run's decision digest.  The same
## kill -9 drill (without the corruption) then runs the live service on
## the array controller.  Then checkpoint a batch run and resume it from
## the file, for the scalar and the array tick, and compare their
## decision digests.
resume-smoke:
	@set -e; dir=$$(mktemp -d); audit=$$dir/audit.jsonl; \
	$(PYTHON) -m repro.cli serve $$audit \
		--ticks 500 --tick-seconds 0.05 --seed 3 --load 4000 \
		--checkpoint-dir $$audit.ckpt --checkpoint-every 4 \
		> $$dir/serve.out 2>&1 & pid=$$!; \
	for i in $$(seq 1 200); do \
		n=$$(ls $$audit.ckpt/checkpoint-*.wck 2>/dev/null | wc -l); \
		[ "$$n" -ge 3 ] && break; sleep 0.2; \
	done; \
	[ "$$n" -ge 3 ] || { echo "no checkpoints appeared"; kill -9 $$pid; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "killed live run after $$n checkpoint(s)"; \
	newest=$$(ls $$audit.ckpt/checkpoint-*.wck | tail -1); \
	printf 'CORRUPT' | dd of=$$newest bs=1 seek=400 conv=notrunc 2>/dev/null; \
	timeout 120 $(PYTHON) -m repro.cli serve $$audit \
		--recover --no-listen --ticks 6 --tick-seconds 0.02 \
		> $$dir/recover.out; \
	cat $$dir/recover.out; \
	grep -qF "skipped corrupt checkpoint $$newest: " $$dir/recover.out \
		|| { echo "recovery did not name $$newest"; exit 1; }; \
	timeout 120 $(PYTHON) -m repro.cli replay $$audit; \
	array=$$dir/array.jsonl; \
	$(PYTHON) -m repro.cli serve $$array --controller vectorized \
		--ticks 500 --tick-seconds 0.05 --seed 3 --load 4000 \
		--checkpoint-dir $$array.ckpt --checkpoint-every 4 \
		> $$dir/array.out 2>&1 & pid=$$!; \
	for i in $$(seq 1 200); do \
		n=$$(ls $$array.ckpt/checkpoint-*.wck 2>/dev/null | wc -l); \
		[ "$$n" -ge 3 ] && break; sleep 0.2; \
	done; \
	[ "$$n" -ge 3 ] || { echo "no array checkpoints appeared"; kill -9 $$pid; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "killed live array run after $$n checkpoint(s)"; \
	timeout 120 $(PYTHON) -m repro.cli serve $$array \
		--recover --no-listen --ticks 6 --tick-seconds 0.02; \
	timeout 120 $(PYTHON) -m repro.cli replay $$array \
		| tee $$dir/array.replay; \
	grep -qF "replay parity: OK" $$dir/array.replay \
		|| { echo "array replay lost parity"; exit 1; }; \
	for flag in "" --vectorized; do \
		timeout 120 $(PYTHON) -m repro.cli checkpoint $$dir/batch$$flag.ckpt \
			--ticks 30 --seed 7 $$flag | grep "decision digest" > $$dir/a; \
		timeout 120 $(PYTHON) -m repro.cli resume $$dir/batch$$flag.ckpt \
			| grep "decision digest" > $$dir/b; \
		cmp $$dir/a $$dir/b; \
	done; \
	rm -rf $$dir; echo "crash recovery parity OK"

## CLI smoke: the scalar and --vectorized controllers print
## byte-identical summaries, the distributed control plane runs under
## loss and a PMU crash, every subcommand's --help works, and a usage
## error exits 2 as a process with one stderr line.
cli-smoke:
	@set -e; dir=$$(mktemp -d); cli="timeout 120 $(PYTHON) -m repro.cli"; \
	$$cli --utilization 0.8 --ticks 60 --hot 4 --seed 9 > $$dir/scalar; \
	$$cli --utilization 0.8 --ticks 60 --hot 4 --seed 9 --vectorized \
		> $$dir/vectorized; \
	diff $$dir/scalar $$dir/vectorized; \
	$$cli degraded --ticks 20 --drop 0.1 --latency 1 --crashes 1 > /dev/null; \
	for sub in "" bench degraded resilience federation gym trace serve \
		replay checkpoint resume; do \
		$$cli $$sub --help > /dev/null; \
	done; \
	status=0; $$cli --ticks 0 > $$dir/out 2> $$dir/err || status=$$?; \
	[ "$$status" -eq 2 ] || { echo "--ticks 0 exited $$status, not 2"; exit 1; }; \
	[ ! -s $$dir/out ] && [ "$$(wc -l < $$dir/err)" -eq 1 ] \
		|| { echo "--ticks 0 did not print one stderr line"; exit 1; }; \
	rm -rf $$dir; echo "cli smoke OK"

## Record a faulty-plant run with tracing on, then replay it through
## the trace CLI (overview, per-server explanation, fault edges).
trace-smoke:
	@set -e; trace=$$(mktemp -d)/run.trace; \
	$(PYTHON) -m repro.cli resilience --ticks 60 --seed 7 \
		--crashes 2 --sensor-faults 1 --trips 1 --trace $$trace > /dev/null; \
	$(PYTHON) -m repro.cli trace $$trace; \
	$(PYTHON) -m repro.cli trace $$trace --tick 40; \
	$(PYTHON) -m repro.cli trace $$trace --histogram --events; \
	rm -rf $$(dirname $$trace); echo "trace round-trip OK"

experiments:
	$(PYTHON) -m repro.experiments.runner all

clean-cache:
	rm -rf .willow_cache
