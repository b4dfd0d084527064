#!/usr/bin/env python3
"""Benchmark of figure regeneration and serving.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload regen-cold --seed 1 --seconds 20 --trace 0

It builds the measuring program (`perfbench/`, a cargo package of its
own) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs every
measurement in fresh child processes, checks the program's outputs, and
prints one JSON result as the last line of stdout. `--trace 1` runs the
layered survey instead and prints the per-layer metrics.

Compare two result sets recorded with `--record FILE`:

    python3 perfbench/run.py compare parent.jsonl change.jsonl

See perfbench/README.md for the workloads, the metrics and the rules.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("regen-cold", "regen-warm", "serve-miss")

# A per-round figure (wall_s, paper_s, scale_free_s, and p50_ms on
# serve-miss) is its lowest over the run's rounds: on a shared 2-core
# host, other tenants only ever add time.
# Set-ups per run; setup_s is their median. A serve-miss set-up is
# short (about 0.6 s), so it is repeated more often.
REGEN_SETUPS = 3
SERVE_SETUPS = 5
# Timed regeneration rounds per run at least, so that a slow host still
# leaves the lowest of several rounds.
MIN_REGEN_ROUNDS = 6
KERNELS = ("coloring", "irregular", "bfs", "pagerank", "components", "hybrid-bfs")
STAGES = (("queue_wait", "ms"), ("execute", "ms"), ("store_probe", "us"),
          ("store_write", "us"), ("serialize", "us"))
# A child that runs longer than this is stuck; the run fails.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def nearest_rank(values, q):
    """Nearest-rank quantile: the smallest value with at least a q share
    of the samples at or below it."""
    if not values:
        raise ValueError("quantile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile (Python's default
    exclusive method); the spread of a metric is (q3 - q1) / median."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The gain rule for one metric. `parent` and `change` are samples
    from alternating runs (pair i = parent[i], change[i]). A change is a
    gain (or a loss) when at least 9 of 10 pairs move that way and the
    medians are further apart than the parent's interquartile range. A
    metric whose parent spread exceeds its bound is unresolved."""
    q1, med, q3 = quartiles(parent)
    if bound is not None and med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    pairs = list(zip(parent, change))
    sign = -1 if better == "lower" else 1
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0)
    apart = abs(median(change) - med) > (q3 - q1)
    if apart and won * 10 >= 9 * len(pairs):
        return "gain"
    if apart and lost * 10 >= 9 * len(pairs):
        return "loss"
    return "same"


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def child_env():
    # Every MIC_* knob is set by the benchmark itself, never inherited.
    return {k: v for k, v in os.environ.items() if not k.startswith("MIC_")}


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = child_env()
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    proc = subprocess.run(["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
                          stdout=sys.stderr, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(target, "release", "perfbench")


def run_child(binary, args):
    """Run one measuring process; returns (parsed result, checks passed)."""
    try:
        proc = subprocess.run([binary] + [str(a) for a in args], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish in {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{args[0]} exited {proc.returncode}")
    return json.loads(lines[-1]), proc.returncode == 0


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def regen(binary, work, warm, seconds):
    """regen-cold / regen-warm. Set-up is REGEN_SETUPS untimed renders (each
    into a fresh cache for regen-warm); the first one also runs the
    correctness checks. Then whole timed renders, one per fresh process,
    until `seconds` have passed."""
    problems = []
    setups = []
    cache = None
    for i in range(REGEN_SETUPS):
        args = ["render"]
        if warm:
            if cache:
                shutil.rmtree(cache, ignore_errors=True)
            cache = os.path.join(work, f"cache{i}")
            args += ["--cache", cache]
        if i == 0:
            args.append("--check")
        r, _ = run_child(binary, args)
        problems += r["check_failures"]
        setups.append(r)
    reference = {e["id"]: e["hash"] for e in setups[0]["exhibits"]}
    checked_bad = set(setups[0]["failed_ids"])
    for r in setups[1:]:
        for e in r["exhibits"]:
            if e["hash"] != reference[e["id"]]:
                problems.append(f"{e['id']}: set-up renders differ")
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_REGEN_ROUNDS or time.monotonic() - start < seconds:
        args = ["render"] + (["--cache", cache] if warm else [])
        r, _ = run_child(binary, args)
        rounds.append(r)
    attempted = failed = 0
    for r in rounds:
        for e in r["exhibits"]:
            attempted += 1
            bad = e["degraded"] > 0 or e["id"] in checked_bad
            if e["hash"] != reference.get(e["id"]):
                # regen-warm's reference is a fresh (cold) fill, so this is
                # also the warm-equals-cold byte-identity check.
                bad = True
                problems.append(f"{e['id']}: output differs from the set-up render")
            failed += bad

    def group_sum(r, group):
        return sum(e["s"] for e in r["exhibits"] if e["group"] == group)

    # Each exhibit's fastest time over the run's rounds: a fixed set of 21
    # like-for-like figures, so a stalled round or the number of rounds
    # that fit does not move the quantiles.
    best_ms = {}
    for r in rounds:
        for e in r["exhibits"]:
            best_ms[e["id"]] = min(best_ms.get(e["id"], math.inf), e["s"] * 1e3)
    metrics = {
        "setup_s": metric(median([r["wall_s"] for r in setups]), "s"),
        "wall_s": metric(min(r["wall_s"] for r in rounds), "s"),
        "paper_s": metric(min(group_sum(r, "paper") for r in rounds), "s"),
        "scale_free_s": metric(min(group_sum(r, "scale-free") for r in rounds), "s"),
        "p50_ms": metric(nearest_rank(list(best_ms.values()), 0.50), "ms"),
        "p99_ms": metric(nearest_rank(list(best_ms.values()), 0.99), "ms"),
    }
    return attempted, failed, problems, metrics


def serve_args(seed, seconds, scratch):
    return ["--seed", seed, "--seconds", seconds, "--scratch", scratch]


def serve_miss(binary, work, seed, seconds):
    """serve-miss: SERVE_SETUPS - 1 set-up-only processes, then one process
    that sets up, runs whole rounds (each round its own list drawn from
    the seed) and checks every response."""
    setup_s = []
    for i in range(SERVE_SETUPS - 1):
        r, _ = run_child(binary, ["serve-setup", "--scratch", os.path.join(work, f"setup{i}")])
        setup_s.append(r["setup_s"])
    r, _ = run_child(binary, ["serve"] + serve_args(seed, seconds, os.path.join(work, "serve")))
    setup_s.append(r["setup_s"])
    rounds = r["rounds"]
    for rd in rounds:
        rd["p50_ms"] = nearest_rank(rd["lat_ms"], 0.50)
    latencies = [x for rd in rounds for x in rd["lat_ms"]]
    metrics = {"setup_s": metric(median(setup_s), "s")}
    for name, unit in (("wall_s", "s"), ("paper_s", "s"), ("scale_free_s", "s"), ("p50_ms", "ms")):
        metrics[name] = metric(min(rd[name] for rd in rounds), unit)
    # Pooled over the run's rounds: at least 13 latencies beyond it.
    metrics["p99_ms"] = metric(nearest_rank(latencies, 0.99), "ms")
    return int(r["attempted"]), int(r["failed"]), r["check_failures"], metrics


def traced(binary, work, seed):
    """The layered survey: every per-layer metric of all three workloads.

    1. a fill render with metrics on (the regen-warm set-up, traced);
    2. regen-layers: graphs, reorderings, every workload key the fill
       wrote, each exhibit, then the cache's read and write paths;
    3. a warm render from the filled cache with metrics on;
    4. serve-layers: one traced serve-miss round (its 7938 stage spans
       fit the 16384-span ring), direct compute of the same jobs, and
       pings."""
    cache = os.path.join(work, "cache")
    problems = []
    fill, ok_fill = run_child(binary, ["render", "--cache", cache, "--metrics"])
    layers, ok_layers = run_child(binary, ["regen-layers", "--filled", cache,
                                           "--scratch", os.path.join(work, "layers")])
    warm, _ = run_child(binary, ["render", "--cache", cache, "--metrics"])
    srv, ok_srv = run_child(binary, ["serve-layers"] + serve_args(seed, 0, os.path.join(work, "serve")))
    if not ok_layers:
        problems.append(f"{layers['regen.exhibit_phase_builds']} builds inside the exhibit phase")
    if not (ok_fill and ok_srv):
        problems.append("traced run failed a check")
    fill_hash = {e["id"]: e["hash"] for e in fill["exhibits"]}
    bad_exhibits = {e["id"] for e in warm["exhibits"] if e["hash"] != fill_hash[e["id"]] or e["degraded"]}
    if bad_exhibits:
        problems.append(f"warm render differs from the fill: {sorted(bad_exhibits)}")

    m = {}
    for name, value in layers.items():
        m[name] = metric(value, layer_unit(name))
    m["trace.regen_fill_s"] = metric(fill["wall_s"], "s")
    m["trace.regen_warm_s"] = metric(warm["wall_s"], "s")
    kernels = srv["kernels"]
    for k in KERNELS:
        m[f"serve.compute_ms.{k}"] = metric(median([c for c, kk in zip(srv["compute_ms"], kernels) if kk == k]), "ms")
    m["serve.overhead_ms"] = metric(median([lat - c for lat, c in zip(srv["lat_ms"], srv["compute_ms"])]), "ms")
    m["serve.ping_us"] = metric(median(srv["ping_us"]), "us")
    for stage, unit in STAGES:
        scale = 1e-3 if unit == "ms" else 1.0
        values = [v * scale for v in srv[stage]]
        if len(values) < 40:
            raise BenchError(f"only {len(values)} {stage} spans read back")
        m[f"serve.{stage}_{unit}.p50"] = metric(nearest_rank(values, 0.50), unit)
        m[f"serve.{stage}_{unit}.p99"] = metric(nearest_rank(values, 0.99), unit)
    m["serve.batch_jobs"] = metric(srv["batch_jobs"], "count")
    m["mem.serve_peak_rss_mb"] = metric(srv["rss_mb"], "MB")
    m["trace.serve_setup_s"] = metric(srv["setup_s"], "s")
    m["trace.serve_wall_s"] = metric(srv["wall_s"], "s")
    m["trace.serve_paper_s"] = metric(srv["paper_s"], "s")
    m["trace.serve_scale_free_s"] = metric(srv["scale_free_s"], "s")
    m["trace.serve_p50_ms"] = metric(nearest_rank(srv["lat_ms"], 0.50), "ms")
    m["trace.serve_p99_ms"] = metric(nearest_rank(srv["lat_ms"], 0.99), "ms")
    attempted = len(warm["exhibits"]) + len(srv["lat_ms"])
    failed = len(bad_exhibits) + int(srv["failed"])
    return attempted, failed, problems, m


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "sweep.parallelism":
        return "ratio"
    return "count"


def run_workload(workload, seed, seconds, trace):
    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if trace:
            return traced(binary, work, seed)
        if workload == "serve-miss":
            return serve_miss(binary, work, seed, seconds)
        return regen(binary, work, workload == "regen-warm", seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


# --------------------------------------------------------------------------
# Comparison mode
# --------------------------------------------------------------------------

def load_set(path):
    """A result set: JSON lines written by `--record`."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = rec["workload"] + (" (traced)" if rec.get("trace") else "")
                runs.setdefault(key, []).append(rec["metrics"])
    return runs


def compare(parent_path, change_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_set(parent_path), load_set(change_path)
    print(f"{'workload':<21} {'metric':<38} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}  verdict")
    for workload in sorted(set(parent) & set(change)):
        names = sorted(set().union(*(r.keys() for r in parent[workload])))
        for name in names:
            p = [r[name]["value"] for r in parent[workload] if name in r]
            c = [r[name]["value"] for r in change[workload] if name in r]
            if not p or not c or name not in rules:
                continue
            better, bound = rules[name]
            pq, cq = quartiles(p), quartiles(c)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:<21} {name:<38} {fmt(pq):>30} {fmt(cq):>30}  {verdict(p, c, better, bound)}")


# --------------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        compare(a.parent, a.change)
        return 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result to this JSON-lines file")
    a = p.parse_args(argv)
    try:
        attempted, failed, problems, metrics = run_workload(a.workload, a.seed, a.seconds, a.trace == 1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    if a.record:
        with open(a.record, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
