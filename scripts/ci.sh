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
# robust, obs, synth, solve) and `hydra-bench check` compares their
# fresh BENCH_<target>.json artifacts against bench/baselines/. robust
# asserts the crash-safety invariants end to end; obs bounds the
# exporter-stack overhead_ratio and requires observation to stay pure;
# solve gates the simplex engine. Counts and every other deterministic
# field match exactly, minor words stay within 1.05x of the baseline
# either way, and seconds and major words stay under 8x. A field the
# baseline lacks is reported, not failed.
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
# The path gate runs one traced hbench sample of `job` and one of
# `supply`, and the same checker holds them against
# bench/baselines/path/: the solver's pivot-path counts, the executor's
# output cardinalities (hbench's own checks compare two executions
# through the same kernels, so they cannot) and the solve's minor words.
# test/test_cache.ml holds those minor words independent of the cache
# directory's path.
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
# traced hbench samples, built the way hbench/run.py builds them

DUNE_CACHE=disabled dune build --root . --display quiet ./hbench/hbench.exe
mkdir "$obs_tmp/hbench" "$obs_tmp/path"
for w in job supply; do
  _build/default/hbench/hbench.exe sample --workload "$w" --seed 1 --trace 1 \
    --dir "$obs_tmp/hbench" > "$obs_tmp/path/BENCH_$w.json"
done
repo=$(pwd)
(cd "$obs_tmp/path" && BENCH_BASELINES="$repo/bench/baselines/path" \
  "$repo/_build/default/bench/main.exe" check)

# ---- program size ----

scripts/loc.sh
