"""Benchmark of the disacsim sensing chain, end to end and per layer.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads are listed in ``workloads.WORKLOADS`` and described in
``perfbench/NOTES.md``. ``--trace 0`` measures the end-to-end metrics with
only the item boundaries timed; ``--trace 1`` wraps every layer boundary and
reports the per-layer metrics instead. Either way the run prints every
metric by name with its unit, then one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BLAS runs on one thread so runs are comparable (two threads give the same ALS
speed on two cores but differ in the last bit of the residual). Exit status
is 2 when the package sources are missing; no result line is printed then.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Modules that load numpy (probes, tracer, workloads) are imported inside
# functions: main() must pin the BLAS threads and put src/ on the path first.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # the run's own set-up plus fresh interpreters
TAIL_BEYOND = 10  # items that must lie beyond the tail percentile
WORKDIR = ROOT / ".perfbench_work"

# metrics of the untraced pass; BENCHMARK.json gates these
GATED = (
    ("item_s_p50", "s"),
    ("item_s_tail", "s"),
    ("items_per_min", "1/min"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# printed on every run, "n/a" where a workload has no such output; they
# repeat exactly for a seed, so they are compared by digest, not gated
ACCURACY = (
    ("ue_err_m_p50", "m"),
    ("target_err_m_p50", "m"),
    ("to_err_ns_p50", "ns"),
    ("detection_rate", "ratio"),
    ("path_recovery_rate", "ratio"),
    ("failed_share", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for repeats)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    return args


def tail(times):
    """(value, percentile, items beyond): the highest whole percentile with
    TAIL_BEYOND items above it; the median when there are too few items."""
    import numpy as np

    n = len(times)
    pct = max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))) if n >= 2 * TAIL_BEYOND else 50
    value = float(np.percentile(times, pct))
    return value, pct, sum(t > value for t in times)


def accuracy(items, workload):
    """The accuracy figures over the first ``min_items`` items (fixed per seed)."""
    head = items[: workload.min_items]
    acc = {k: [] for k in ("ue_err_m", "target_err_m", "to_err_ns")}
    detected = targets = recovered = tensors = 0
    for it in head:
        for k in acc:
            acc[k].extend(it.accuracy.get(k, ()))
        detected += it.accuracy.get("detected", 0)
        targets += it.accuracy.get("targets", 0)
        recovered += it.accuracy.get("recovered", 0)
        tensors += it.accuracy.get("tensors", 0)
    med = lambda xs: statistics.median(xs) if xs else None
    failed = sum(bool(it.failures) for it in items)
    return {
        "ue_err_m_p50": med(acc["ue_err_m"]),
        "target_err_m_p50": med(acc["target_err_m"]),
        "to_err_ns_p50": med(acc["to_err_ns"]),
        "detection_rate": detected / targets if targets else None,
        "path_recovery_rate": recovered / tensors if tensors else None,
        "failed_share": failed / len(items),
    }, {"targets": targets, "tensors": tensors, "failed": failed}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"blas_threads={','.join(f'{v}={os.environ.get(v)}' for v in BLAS_ENV)} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
            f"python={platform.python_version()}")


def child_setup_s(args):
    """Set-up time of a fresh interpreter running the same workload."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds, trace):
    """The closed loop: batches until the timed work is as close to
    ``seconds`` as whole batches allow, and at least ``min_items`` items;
    returns (items, timed loop seconds, tracer, leaks). A desk_mc batch is
    two trials of about 30 s, so a plain "until ``seconds``" rule would
    double a run whenever one batch ends just short of it."""
    import probes
    import tracer as tracing

    if trace:
        tr = tracing.Tracer(hooks=probes.HOOKS)
    else:
        tr = tracing.Tracer(hooks=probes.HOOKS, only=frozenset(filter(None, [workload.boundary])))
    items, loop_s, batches = [], 0.0, 0
    with tr:
        while len(items) < workload.min_items or (
            loop_s + 0.5 * loop_s / max(batches, 1) < seconds
        ):
            batch, batch_s = workload.batch(tr)
            items.extend(batch)
            loop_s += batch_s
            batches += 1
    return items, loop_s, tr, tracing.patched_attributes()


def run(workload, seed, seconds, trace, setups_s, out=print):
    """Measure a set-up workload, print the report and return the result."""
    import probes
    import tracer as tracing

    items, loop_s, tr, leaks = measure(workload, seconds, trace)
    times = [it.seconds for it in items]
    problems = [p for it in items for p in it.problems]
    problems += [f"tracing wrapper left on {name}" for name in leaks]
    acc, base = accuracy(items, workload)
    tail_s, tail_pct, beyond = tail(times)
    e2e = {
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail_s,
        "items_per_min": 60.0 * len(items) / loop_s,
        "setup_s": statistics.median(setups_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    canon = [it.canonical for it in items[: workload.min_items]]
    digest = hashlib.sha256(
        json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    out(f"perfbench workload={workload.name} seed={seed} seconds={seconds:g} trace={trace}")
    out(f"environment: {environment()}")
    out(f"end-to-end ({'traced' if trace else 'untraced'} pass, {len(items)} items, "
        f"{loop_s:.3f} s timed):")
    notes = {
        "item_s_tail": f"p{tail_pct} over {len(items)} items, {beyond} beyond"
                       + ("; too few items for a tail, so the median" if tail_pct == 50 else ""),
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups_s),
        "failed_share": f"{base['failed']}/{len(items)} items",
        "detection_rate": f"of {base['targets']} targets",
        "path_recovery_rate": f"of {base['tensors']} tensors",
    }
    for name, unit in GATED + ACCURACY:
        value = e2e.get(name, acc.get(name))
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        note = notes.get(name, "") if value is not None else ""
        out(f"  {name:20s} {shown:22s} {note}".rstrip())
    out(f"accuracy and digest over the first {workload.min_items} items "
        f"(fixed for a seed): canonical_sha256={digest}")
    for p in problems[:20]:
        out(f"check failed: {p}")

    if trace:
        layer_metrics, seconds_table = probes.per_layer(tr, times, loop_s, tracing.wrapper_cost_s())
        out("per layer (traced pass; share = self time / timed loop time):")
        for name, (value, unit) in layer_metrics.items():
            out(f"  {name:45s} {value:.6g} {unit}")
        out("  self s/item, total s/item, calls:")
        for key, (self_s, total_s, calls) in seconds_table.items():
            if calls:
                out(f"  {key:45s} {self_s:.6g} {total_s:.6g} {calls}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in GATED}
    return {
        "correct": not problems and bool(items),
        "attempted": len(items),
        "failed": base["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "disacsim" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports disacsim, which set-up time includes

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        result = run(workload, args.seed, args.seconds, args.trace, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
