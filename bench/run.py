"""modwhittle benchmark: fit workloads end to end, and a traced per-layer run.

    python3 bench/run.py --workload car1-walk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one worker, BLAS/OpenMP pinned to one thread, a
closed loop with one client: the next op starts when the previous returns.

``--trace 0`` times ops for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the same op order twice for ``--seconds/2`` each, first
untraced and then with every layer boundary wrapped (see tracing.py), and
reports per-op layer metrics plus the tracing overhead as the drop in
throughput between the two halves.  Every op's output is checked against the
reference recorded in ``bench/reference``.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit and
the machine facts.  Spans and the full result go to ``bench/out``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so the BLAS pools start with one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# linear-beta is run by hand only; BENCHMARK.json leaves it out (see README)
WORKLOAD_NAMES = ("drifter", "car1-walk", "mask-ar1", "linear-beta")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "throughput_ops": "ops/s",
    "rel_rmse": "ratio",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import modwhittle from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "modwhittle" / "__init__.py").is_file():
        raise SystemExit(f"error: no modwhittle sources under {src}; run from "
                         "the root of a modwhittle checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import modwhittle
    import tracing  # noqa: F401
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(modwhittle.__file__).resolve().parent != (src / "modwhittle").resolve():
        raise SystemExit(f"error: imported modwhittle from {modwhittle.__file__}, "
                         f"not from {src}")
    return elapsed


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def set_up(workload) -> tuple[list, float]:
    """Build the op pool and warm up, SETUP_REPEATS times; median duration."""
    times = []
    pool = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = workload.make_pool()
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return pool, statistics.median(times)


def run_window(workload, pool, refs, seed: int, seconds: float,
               min_rounds: int, on_op=None) -> dict:
    """Closed loop over the seed's op order, a round at a time.

    Runs until `seconds` have passed and `min_rounds` rounds are done.
    Returns per-op wall times, completion times, failures, and the relative
    errors of the scored rounds that ran.
    """
    import workloads as wl

    order = wl.op_order(workload, seed)
    lat, done, errs = [], [], []
    failed = rounds = 0
    t_start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - t_start < seconds:
        for _ in workload.slots:
            index = next(order)
            if on_op is not None:
                on_op(len(lat))
            t0 = time.perf_counter()
            try:
                out = workload.run(pool[index])
            except Exception as exc:  # an op that raises is a failed op
                print(f"op {index} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                out = None
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            done.append(t1 - t_start)
            if out is None or not workload.check(out, refs[index]):
                failed += 1
            if out is not None and rounds < workload.scored_rounds:
                errs.extend(workload.rel_errors(out))
        rounds += 1
    return {"lat": lat, "done": done, "failed": failed, "errs": errs,
            "elapsed": done[-1]}


def end_to_end(window: dict, setup_s: float) -> dict:
    import numpy as np

    errs = np.asarray(window["errs"], dtype=float)
    return {
        "setup_s": setup_s,
        "latency_s.p50": float(np.median(window["lat"])),
        "throughput_ops": len(window["lat"]) / window["elapsed"],
        "rel_rmse": float(np.sqrt(np.mean(errs ** 2))) if errs.size else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_window(workload, pool, refs, seed: int, seconds: float):
    """Untraced then traced windows over the same op order."""
    import tracing
    from modwhittle import models

    # no accuracy is reported here, so neither half waits for the scored set
    plain = run_window(workload, pool, refs, seed, seconds, 1)
    tracer = tracing.Tracer()
    cache = getattr(models, "_matern_acv_cached", None)

    def cache_counts():
        info = cache.cache_info() if cache is not None else None
        return (info.hits, info.misses) if info else (0, 0)

    def mark(op_number):
        tracer.op_id = op_number

    with tracing.patched(tracer.patches()):
        tracer.op_id = tracing.SETUP_OP
        pool = workload.make_pool()  # set-up spans: drifter trajectories
        hits0, miss0 = cache_counts()
        traced = run_window(workload, pool, refs, seed, seconds, 1, on_op=mark)
        hits1, miss1 = cache_counts()
    ops = len(traced["lat"])
    metrics = tracing.layer_metrics(tracer, ops, hits1 - hits0, miss1 - miss0)
    # overhead on the common prefix of ops, which is the same in both windows
    m = min(len(plain["lat"]), ops)
    rate_plain = m / plain["done"][m - 1]
    rate_traced = m / traced["done"][m - 1]
    metrics["trace.throughput_drop"] = 1.0 - rate_traced / rate_plain
    attempted = len(plain["lat"]) + ops
    return metrics, attempted, plain["failed"] + traced["failed"], tracer


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    import numpy as np

    import tracing
    import workloads as wl

    warnings.simplefilter("ignore")
    workload = wl.WORKLOADS[args.workload]
    refs = wl.load_reference(workload)
    pool, build_s = set_up(workload)
    setup_s = import_s + build_s
    facts = machine_facts(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = {**END_TO_END_UNITS,
             **{k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}}

    if args.trace == 0:
        window = run_window(workload, pool, refs, args.seed, args.seconds,
                            workload.scored_rounds)
        metrics = end_to_end(window, setup_s)
        lat = np.asarray(window["lat"])
        n = lat.size
        print_table(f"workload {args.workload}  seed {args.seed}  ops {n}  "
                    f"setup {SETUP_REPEATS}x (median)", metrics, units)
        extra = {"ops": n, "fail_ratio": window["failed"] / n}
        if n * 0.1 >= 10:  # a p90 needs at least ten samples beyond it
            extra["latency_s.p90"] = float(np.percentile(lat, 90))
        print_table("  also:", extra, {"latency_s.p90": "s", "fail_ratio": "ratio"})
        attempted, failed = n, window["failed"]
    else:
        metrics, attempted, failed, tracer = traced_window(
            workload, pool, refs, args.seed, args.seconds / 2)
        print_table(f"workload {args.workload}  seed {args.seed}  traced "
                    f"per-op layer metrics", metrics, units)
        np.savez(f"{stem}-spans.npz", **tracer.arrays())

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print("machine " + json.dumps(facts))
    with open(f"{stem}.json", "w") as fh:
        json.dump({"machine": facts, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
