#!/bin/sh
# CI entry point: full build, every test suite, and the bench
# regression gate against the committed baselines.
#
#   scripts/ci.sh            # from the repo root
#
# `dune runtest` includes the crash-safety battery (test_chaos.ml: the
# fault-injection sweep proving crash/resume byte-identity at every
# registered site, and every crash state of a finished state dir) and
# the chaos.t cram test (a real `kill` through the CLI, resumed from the
# --state-dir store).
#
# The gate re-runs the cheap bench targets (smoke, audit, cache,
# robust, obs, synth, solve) and compares their fresh
# BENCH_<target>.json artifacts
# against bench/baselines/. robust asserts the crash-safety invariants
# end to end: retried_tasks, replayed_views, retry_identical and
# resume_identical must match the baseline exactly; obs bounds the
# exporter-stack overhead_ratio and requires observation to stay pure.
# solve gates the simplex engine: float-first at most 0.5x the exact
# wall time, byte-identical summaries, and every view on the Exact rung.
# Timing/allocation fields pass within BENCH_CHECK_TOLERANCE (default
# 8x); every other field must match exactly.
#
# The tail is a run-ledger smoke (two archived regenerations of the
# same spec, listed and diffed — the diff must pass clean under the
# strictest deterministic gate and fail (exit 5) under an impossible
# injected threshold — and the first run's trace rendered back from
# the ledger byte-equal to its chrome export, and its json export on
# stdout byte-equal to the archived record), a --state-dir smoke (the
# state dir scrubs clean as a cache directory and a second run replays
# every view), and a fixed-seed `hydra fuzz` smoke:
# 25 synthesized workloads through the full invariant battery, run
# twice to assert the sweep itself is byte-deterministic. The
# nightly-sized sweep is `dune build @fuzz` (100 workloads).
#
# The path gate runs one traced hbench `job` sample and requires its
# lp.float_pivots, lp.iterations, lp.degenerate_pivots,
# lp.verify_repairs, lp.bnb_nodes and lp.bland_fallbacks to read
# 2369/2409/1470/0/20/5 exactly: a change of any of them is a change of
# the pivot path. One traced `supply` sample must read
# 746/792/521/0/23/3 the same way. The `job` sample's lp.minor_words,
# which repeat exactly at --jobs 1, must stay within 1.05x of 8,308,762,
# and a second traced `job` sample, whose --dir has another length,
# must read the same lp.minor_words: the view.solve span holds the
# solve alone, not the cache's path-dependent key and hint work.
# Both samples also pin the executor's output cardinalities, which
# hbench's own checks cannot: they compare two executions through the
# same kernels. engine.datagen/join/filter.rows_out must read
# 4007398/962090/563564 on `job` and 15848019/6791205/2572995 on
# `supply`.
#
# Last, scripts/loc.sh prints the program's size (lib/ + bin/), the
# measure ROADMAP tracks from change to change.
set -eu

cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune build @bench/bench-gate

# ---- hydra obs end-to-end smoke ----

obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT

hydra=_build/default/bin/hydra_cli.exe
cat > "$obs_tmp/ci.hydra" <<'SPEC'
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
cc |S| = 700;
cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
SPEC

"$hydra" summary "$obs_tmp/ci.hydra" -o "$obs_tmp/a.summary" \
  --obs-dir "$obs_tmp/ledger" --progress 60 --export json=- \
  --export chrome="$obs_tmp/a.trace.json" > "$obs_tmp/a.json" 2> /dev/null
"$hydra" summary "$obs_tmp/ci.hydra" -o "$obs_tmp/b.summary" \
  --obs-dir "$obs_tmp/ledger" > /dev/null 2>&1
cmp "$obs_tmp/a.summary" "$obs_tmp/b.summary"

runs=$("$hydra" obs list --obs-dir "$obs_tmp/ledger" | grep -c '^run-')
[ "$runs" -eq 2 ] || { echo "obs smoke: expected 2 ledger runs, got $runs" >&2; exit 1; }

# identical runs under the strictest deterministic gate: clean pass
"$hydra" obs diff --obs-dir "$obs_tmp/ledger" 1 2 --default-threshold 1.0 > /dev/null

# an impossible threshold must trip the gate with the CI exit code (5)
if "$hydra" obs diff --obs-dir "$obs_tmp/ledger" 1 2 \
     --threshold simplex.iterations=0.5 > /dev/null 2>&1; then
  echo "obs smoke: injected regression was not detected" >&2; exit 1
else
  rc=$?
  [ "$rc" -eq 5 ] || { echo "obs smoke: expected exit 5, got $rc" >&2; exit 1; }
fi

# the archived run renders back post hoc: run 1's chrome trace from
# the ledger is byte-equal to the run's own chrome export
"$hydra" obs show --obs-dir "$obs_tmp/ledger" 1 --format chrome \
  | cmp - "$obs_tmp/a.trace.json" \
  || { echo "obs smoke: archived trace differs from its export" >&2; exit 1; }

# --export json=- prints the run record itself: byte-equal to the
# archived file minus its digest trailer line
sed '$d' "$obs_tmp"/ledger/run-000001-*.json | cmp - "$obs_tmp/a.json" \
  || { echo "obs smoke: json export differs from the archive" >&2; exit 1; }

echo "obs smoke: ledger, list, gated diff, post-hoc trace and json record ok"

# ---- state-dir smoke ----
# a --state-dir run leaves a plain durable store: the cache tooling
# scrubs it clean, and a second run replays every view from it

"$hydra" summary "$obs_tmp/ci.hydra" -o "$obs_tmp/state1.summary" \
  --state-dir "$obs_tmp/state" > /dev/null
"$hydra" cache scrub --cache-dir "$obs_tmp/state" > "$obs_tmp/scrub.out" \
  || { echo "state smoke: scrub of the state dir failed" >&2; exit 1; }
grep -q ', 0 bad, ' "$obs_tmp/scrub.out" \
  || { echo "state smoke: scrub found bad entries" >&2; cat "$obs_tmp/scrub.out" >&2; exit 1; }
"$hydra" summary "$obs_tmp/ci.hydra" -o "$obs_tmp/state2.summary" \
  --state-dir "$obs_tmp/state" > "$obs_tmp/state.out"
views=$(grep -c '^  view ' "$obs_tmp/state.out")
replayed=$(grep -c '^  view .* \[replayed\]' "$obs_tmp/state.out" || true)
[ "$views" -gt 0 ] && [ "$replayed" -eq "$views" ] \
  || { echo "state smoke: second run did not replay all $views views" >&2; cat "$obs_tmp/state.out" >&2; exit 1; }
cmp "$obs_tmp/state1.summary" "$obs_tmp/state2.summary"

echo "state smoke: state dir scrubs clean, $views/$views views replayed"

# ---- hydra fuzz fixed-seed smoke ----

"$hydra" fuzz --seed 1 --count 25 --out "$obs_tmp/fuzz-reproducers" \
  > "$obs_tmp/fuzz.a"
"$hydra" fuzz --seed 1 --count 25 --out "$obs_tmp/fuzz-reproducers" \
  > "$obs_tmp/fuzz.b"
cmp "$obs_tmp/fuzz.a" "$obs_tmp/fuzz.b" \
  || { echo "fuzz smoke: sweep output is not deterministic" >&2; exit 1; }
grep -q '^fuzz: 25/25 workload(s) passed' "$obs_tmp/fuzz.a" \
  || { echo "fuzz smoke: sweep did not pass clean" >&2; cat "$obs_tmp/fuzz.a" >&2; exit 1; }

echo "fuzz smoke: 25/25 workloads passed, sweep deterministic"

# ---- deterministic path gate ----
# one traced hbench `job` sample, built the way hbench/run.py builds it:
# its pivot-path counts repeat exactly, so any change to them is a
# change of the solver's path

DUNE_CACHE=disabled dune build --root . --display quiet ./hbench/hbench.exe
mkdir "$obs_tmp/hbench" "$obs_tmp/hbench-with-a-longer-directory-name"
_build/default/hbench/hbench.exe sample --workload job --seed 1 --trace 1 \
  --dir "$obs_tmp/hbench" > "$obs_tmp/hbench.json"
python3 - "$obs_tmp/hbench.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
want = {"lp.float_pivots": 2369, "lp.iterations": 2409,
        "lp.degenerate_pivots": 1470, "lp.verify_repairs": 0,
        "lp.bnb_nodes": 20, "lp.bland_fallbacks": 5,
        "engine.datagen.rows_out": 4007398, "engine.join.rows_out": 962090,
        "engine.filter.rows_out": 563564}
off = {k: (metrics.get(k), v) for k, v in want.items() if metrics.get(k) != v}
if off:
    sys.exit("path gate: job counts (got, want) %s" % off)
PY

echo "path gate: job lp.* counts 2369/2409/1470/0/20/5, engine rows 4007398/962090/563564"

_build/default/hbench/hbench.exe sample --workload supply --seed 1 --trace 1 \
  --dir "$obs_tmp/hbench" > "$obs_tmp/hbench-supply.json"
_build/default/hbench/hbench.exe sample --workload job --seed 1 --trace 1 \
  --dir "$obs_tmp/hbench-with-a-longer-directory-name" > "$obs_tmp/hbench-job2.json"
python3 - "$obs_tmp/hbench.json" "$obs_tmp/hbench-supply.json" \
  "$obs_tmp/hbench-job2.json" <<'PY'
import json, sys
job, supply, job2 = (json.load(open(p))["metrics"] for p in sys.argv[1:4])
want = {"lp.float_pivots": 746, "lp.iterations": 792,
        "lp.degenerate_pivots": 521, "lp.verify_repairs": 0,
        "lp.bnb_nodes": 23, "lp.bland_fallbacks": 3,
        "engine.datagen.rows_out": 15848019, "engine.join.rows_out": 6791205,
        "engine.filter.rows_out": 2572995}
off = {k: (supply.get(k), v) for k, v in want.items() if supply.get(k) != v}
if off:
    sys.exit("path gate: supply counts (got, want) %s" % off)
ceiling = 1.05 * 8308762
if job["lp.minor_words"] > ceiling:
    sys.exit("allocation gate: job lp.minor_words %d > %d"
             % (job["lp.minor_words"], ceiling))
if job2["lp.minor_words"] != job["lp.minor_words"]:
    sys.exit("allocation gate: job lp.minor_words %d with one --dir, %d with another"
             % (job["lp.minor_words"], job2["lp.minor_words"]))
PY

echo "path gate: supply lp.* counts 746/792/521/0/23/3, engine rows 15848019/6791205/2572995, job lp.minor_words within 1.05x and independent of --dir"

# ---- program size ----

scripts/loc.sh
