"""Benchmark of the belyi-forge pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 12 --trace 0

Workloads are described in ``perfbench/rationale.json``.  One process makes
the workload's calls closed-loop, one after the other, through the package's
public functions and ``belyi_forge.cli.main``.  A pass is the workload's
whole list of calls; package caches are cleared before each pass, so every
pass costs what it costs in a fresh process.  Passes repeat while the next
one is expected to end within ``--seconds`` (at least ``MIN_PASSES``).
Latencies are scaled by the machine's speed around each call (``speed.py``).

``--trace 0`` reports the end-to-end metrics, tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones plus the tracing overhead.  Every call's output is checked in
every pass; a call that passed when ``reference.json`` was recorded must pass
again, or the run is not correct.  The last line of stdout is the JSON
result; a report with the environment, failures by reason, the metrics from
unscaled times and every call's raw and scaled latency goes to
``perfbench/out/``.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))

# Set before numpy is imported: BLAS threads stay at one, and the CLI's
# thread pool at the processors this process may use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BELYI_FORGE_THREADS"] = str(NPROC)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = {"catalogue": 1, "enumerate": 5, "solve": 2, "surface": 3}
SETUP_RUNS = 5
# The tail is the highest percentile with at least this many calls beyond it.
TAIL_CALLS = 10


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with beta-distribution weights
    centred on the q-th.  Call latencies come in a few distinct sizes, and a
    plain order statistic jumps from one size to the next as noise reorders
    the samples near it; this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))

    # Weight of x_i: the beta mass on [(i-1)/n, i/n], by Simpson's rule.
    steps = 8
    weights = []
    for i in range(n):
        lo, width = i / n, 1 / (n * steps)
        ys = [density(lo + k * width) for k in range(steps + 1)]
        weights.append(width / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with TAIL_CALLS samples beyond it (>= 50)."""
    return max(50, int(100 * (1 - TAIL_CALLS / samples)))


def run_pass(calls, mods, reference, tracer=None) -> dict:
    workloads.reset_caches(mods)
    probes = speed.Probes()
    raw, bounds, reasons = [], [], {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, call in enumerate(calls):
            probes.maybe()
            if tracer is not None:
                tracer.call_id = i
            start = time.perf_counter()
            dt, reason, digest = workloads.execute(call, mods)
            bounds.append((start, time.perf_counter()))
            reason = workloads.check(call, reason, digest, reference)
            raw.append(dt)
            if reason is not None:
                reasons[workloads.label(call)] = reason
    finally:
        if tracer is not None:
            tracer.uninstall()
    probes.maybe(force=True)
    latencies = [dt / probes.slowness(a, b) for dt, (a, b) in zip(raw, bounds)]
    return {
        "calls": calls,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "latencies": latencies,
        "raw_latencies": raw,
        "failures": reasons,
        "traced": tracer is not None,
        "record": tracer.collect() if tracer is not None else None,
    }


def repeat_passes(kinds, seconds, min_passes, run) -> list[dict]:
    """Run rounds of passes, one of each kind, while the next round fits."""
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        passes += [run(kind, rounds) for kind in kinds]
        rounds += 1
        used = time.perf_counter() - start
        if rounds >= min_passes and used + (time.perf_counter() - t0) > seconds:
            return passes


def setup_times(name: str, smoke: bool) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of fresh interpreters."""
    times, raw = [], []
    for _ in range(1 if smoke else SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        sample = json.loads(proc.stdout.splitlines()[-1])
        times.append(sample["setup_s"] / sample["slowness"])
        raw.append(sample["setup_s"])
    return times, raw


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import mpmath  # loaded with the package; imported here for its version
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {
            k: os.environ[k]
            for k in ("BELYI_FORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def end_to_end(name, passes, setup, raw=False) -> tuple[dict, dict]:
    """End-to-end metrics; with ``raw``, from unscaled times."""
    lat = [x for p in passes for x in p["raw_latencies" if raw else "latencies"]]
    attempted = len(lat)
    failed = sum(len(p["failures"]) for p in passes)
    q = tail_percentile(len(passes[0]["calls"]) * MIN_PASSES[name])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["raw_wall_s" if raw else "wall_s"] for p in passes), "s"),
        "op_p50_ms": (quantile(lat, 50) * 1e3, "ms"),
        "op_tail_ms": (quantile(lat, q) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "op_tail": {"percentile": q, "samples": attempted},
        "fail_ratio": failed / attempted,
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_layer(passes) -> dict:
    """Counts of the first traced pass; times are medians over traced passes,
    scaled by each pass's scaled-to-raw wall ratio like call latencies."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = []
    for p in traced:
        scale = p["wall_s"] / p["raw_wall_s"]
        layers.append({
            key: (value * scale if unit == "s" else value / scale if unit == "1/s" else value, unit)
            for key, (value, unit) in tracing.layer_metrics(p["record"]).items()
        })
    metrics = {}
    for key, (value, unit) in layers[0].items():
        if unit in ("s", "1/s"):
            value = statistics.median(m[key][0] for m in layers)
        metrics[key] = (value, unit)
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_spans(path: Path, passes) -> None:
    with path.open("w") as fh:
        for n, p in enumerate(q for q in passes if q["traced"]):
            for i, call in enumerate(p["calls"]):
                label = workloads.label(call)
                fh.write(json.dumps({"pass": n, "call": i, "label": label,
                                     "failure": p["failures"].get(label)}) + "\n")
            for sid, parent, name, t0, t1, call_id in p["record"]["spans"]:
                fh.write(json.dumps({"pass": n, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "call": call_id}) + "\n")


def run_workload(args) -> int:
    load_before = os.getloadavg()
    try:
        mods = workloads.load_package(ROOT)
    except workloads.PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    reference = json.loads((HERE / "reference.json").read_text())
    setup, raw_setup = ([], []) if args.trace else setup_times(args.workload, args.smoke)
    for call in workloads.WARM_UPS[args.workload]:
        workloads.execute(call, mods)

    tracer = tracing.Tracer(mods) if args.trace else None

    def run(kind, round_index):
        # Both passes of a traced round make the same calls, so the
        # difference of their times is the tracing overhead.
        calls = workloads.build_calls(
            args.workload, args.seed, mods, smoke=args.smoke, pass_index=round_index
        )
        return run_pass(calls, mods, reference, tracer if kind == "traced" else None)

    kinds = ("plain", "traced") if args.trace else ("plain",)
    min_passes = 1 if args.trace or args.smoke else MIN_PASSES[args.workload]
    passes = repeat_passes(kinds, args.seconds, min_passes, run)

    if args.trace:
        metrics, detail = per_layer(passes), {}
    else:
        metrics, detail = end_to_end(args.workload, passes, setup)
        raw_metrics, _ = end_to_end(args.workload, passes, raw_setup, raw=True)
        detail["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()}
    failures = Counter(r for p in passes for r in p["failures"].values())
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(failures.values())
    correct = not any(r.startswith("reference_") for r in failures)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT / f"{stem}-spans.jsonl", passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "load_average_before": load_before,
        "load_average_after": os.getloadavg(),
        "calls_per_pass": len(passes[0]["calls"]),
        "passes": [
            {"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"], "traced": p["traced"],
             "latencies_s": p["latencies"], "raw_latencies_s": p["raw_latencies"]}
            for p in passes
        ],
        "failures_by_reason": dict(sorted(failures.items())),
        "failed_calls_first_pass": passes[0]["failures"],
        **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{args.workload:>9} {key:<44} {value:>14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
