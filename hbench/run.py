#!/usr/bin/env python3
"""HYDRA benchmark driver.

Run from the root of a source checkout:

    python3 hbench/run.py --workload job --seed 1 --seconds 60 --trace 0
    python3 hbench/run.py --steadiness --seconds 60
    python3 hbench/run.py --noise

The first form builds hbench/hbench.exe from source with dune, then runs
samples of the workload, one fresh process each, until --seconds have
passed, and prints as its last stdout line one JSON object: correctness
counts and, per metric named in BENCHMARK.json, the median over the
samples. --trace 0 reports the end-to-end metrics with tracing off;
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics of the traced ones.

--steadiness runs every workload as two sets of ten runs with distinct
seeds and prints, per (workload, metric), each set's median and spread
(quartile distance over median) and the between-set difference against
the metric's bound. --noise times a register-only loop and a 13.5 MB
streaming loop in ten fresh processes: the host's noise floor.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "hbench", "hbench.exe")
WORK = ".hbench"
SAMPLE_TIMEOUT = 170
RUNS = 10  # runs per set in --steadiness, processes in --noise


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    raise SystemExit("hbench: dune not found")


def build():
    """Build the sample program from the checkout's sources, keeping the
    compiler's temporary files inside the checkout."""
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = dune_command() + ["build", "--root", ".", "--display", "quiet",
                            "./hbench/hbench.exe"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        raise SystemExit("hbench: build failed")


def run_sample(workload, seed, traced, scratch):
    cmd = [EXE, "sample", "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--dir", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=SAMPLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        log("hbench: sample timed out")
        return None
    if proc.returncode != 0:
        log("hbench: sample exited with %d" % proc.returncode)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("hbench: sample printed no result")
        return None


def median(values):
    return statistics.median(values) if values else None


def timed_metrics(results):
    """The timed end-to-end metrics of a run, from every repetition of
    its samples, per input: the summary regions summed over the inputs,
    the data regions as rows over seconds.

    A region a sample repeats takes the fastest quarter of the run's
    repetitions, because the host's other tenants only ever slow a
    repetition down; a region a sample runs once (job's multi-second
    summaries) takes the median over the samples."""
    if not results:
        return {}

    def low(region):
        per_input = {}
        for r in results:
            for i, ts in enumerate(r["times"][region]):
                per_input.setdefault(i, []).append(ts)
        lows = []
        for i in sorted(per_input):
            pooled = sorted(t for ts in per_input[i] for t in ts)
            if all(len(ts) == 1 for ts in per_input[i]):
                lows.append(statistics.median(pooled))
            else:
                lows.append(pooled[(len(pooled) - 1) // 4])
        return lows

    out = {"summary_s": sum(low("summary")), "resummary_s": sum(low("resummary"))}
    for region in ("materialize", "supply", "query"):
        out[region + "_mrows_s"] = results[0]["rows"][region] / low(region)[0] / 1e6
    return out


def measure(workload, seed, seconds, trace):
    """Samples until the time is up; the aggregated result object."""
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    scratch = os.path.join(WORK, "tmp-%010d" % os.getpid())
    os.makedirs(scratch)
    samples = []  # (traced, result or None)
    try:
        deadline = time.monotonic() + seconds
        longest = 0.0
        while True:
            # the traced run alternates untraced and traced samples
            traced = bool(trace) and len(samples) % 2 == 1
            t0 = time.monotonic()
            res = run_sample(workload, seed, traced, scratch)
            samples.append((traced, res))
            if res is not None and res["metrics"]:
                values = dict(res["metrics"], **timed_metrics([res]))
                log("hbench: sample %d%s: %s" % (len(samples), " traced" if traced else "",
                    json.dumps({m["name"]: values.get(m["name"])
                                for m in spec["end_to_end"]})))
            longest = max(longest, time.monotonic() - t0)
            enough = len(samples) >= (2 if trace else 1)
            if enough and time.monotonic() + longest > deadline:
                break
        spans = os.path.join(WORK, "spans")
        os.makedirs(spans, exist_ok=True)
        for name in os.listdir(scratch):
            if name.startswith("spans-"):
                os.replace(os.path.join(scratch, name), os.path.join(spans, name))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    for _, res in samples:
        if res is None:
            attempted += 1
            failed += 1
            continue
        attempted += len(res["checks"])
        failed += sum(1 for _, ok in res["checks"] if not ok)
    good = [(t, r) for t, r in samples if r is not None and r["metrics"]]
    plain = [r for t, r in good if not t]
    traced = [r for t, r in good if t]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = traced if trace else plain
    pooled = timed_metrics(source)
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "obs.overhead_ratio":
            a = timed_metrics(traced).get("summary_s")
            b = timed_metrics(plain).get("summary_s")
            value = a / b if a is not None and b else None
        elif name in pooled:
            value = pooled[name]
        else:
            value = median([s["metrics"][name] for s in source if name in s["metrics"]])
        if value is not None:
            metrics[name] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and len(metrics) == len(wanted)
    log("hbench: %s seed %d: %d samples (%d traced), %d/%d checks failed"
        % (workload, seed, len(samples), len(traced), failed, attempted))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---- steadiness self-check ----

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(seconds):
    spec = load_spec()
    here = os.path.abspath(__file__)
    record = {}
    for w in [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(2):
            results = []
            for i in range(RUNS):
                seed = s * RUNS + i + 1
                proc = subprocess.run(
                    [sys.executable, here, "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if not res["correct"]:
                    log("hbench: %s seed %d incorrect" % (w, seed))
                results.append(res)
                log("hbench: %s set %d run %d: %s" % (w, s + 1, i + 1, json.dumps(
                    {k: round(v["value"], 4) for k, v in res["metrics"].items()})))
            sets.append(results)
        rows = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                    for rs in sets]
            m1, m2 = statistics.median(vals[0]), statistics.median(vals[1])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            s1, s2 = spread(vals[0]), spread(vals[1])
            limit = None if name == "setup_s" else bound / 3
            ok = worse <= bound and (limit is None or max(s1, s2) <= limit)
            rows.append({"metric": name, "median": [m1, m2], "spread": [s1, s2],
                         "worse": worse, "bound": bound, "ok": ok})
            print("%-8s %-20s median %12.5g %12.5g  spread %6.3f %6.3f  "
                  "worse %+6.3f  bound %.3f  %s"
                  % (w, name, m1, m2, s1, s2, worse, bound, "ok" if ok else "NOT STEADY"))
        record[w] = rows
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "steadiness.json"), "w") as f:
        json.dump(record, f, indent=1)


def noise():
    vals = {"register_s": [], "stream_s": []}
    for _ in range(RUNS):
        out = subprocess.run([EXE, "noise"], stdout=subprocess.PIPE, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        for k in vals:
            vals[k].append(res[k])
    for k, v in vals.items():
        med = statistics.median(v)
        print("%-11s median %.4f s  spread %.3f  range -%.1f%% +%.1f%%"
              % (k, med, spread(v), 100 * (med - min(v)) / med, 100 * (max(v) - med) / med))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--noise", action="store_true")
    args = ap.parse_args()
    build()
    if args.noise:
        noise()
    elif args.steadiness:
        steadiness(args.seconds)
    else:
        if not args.workload:
            ap.error("--workload is required")
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
