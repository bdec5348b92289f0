"""ncfree benchmark: one closed-loop caller, three seeded workloads.

    python3 ncbench/run.py --workload moments|convolution|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncfree is imported from its `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, which also
repeats the untraced loop to state the tracing overhead.  The line before it
records the environment, the untraced loop's full latency statistics and
sample count, and how many results were checked.  See ncbench/README.md.
"""

from time import perf_counter

T_START = perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # small matrices: threads add noise, not speed
    os.environ.setdefault(_var, "1")
SETUP_REPEATS = 5  # this process plus four fresh interpreters
# checks stop after this share of --seconds, so a run stays bounded however
# fast the timed loop gets (the oracles do not get faster with it)
CHECK_SHARE = 0.8

# On a shared VM, host interference slows everything by up to 70% for seconds
# at a time.  Over ten seeds the median latency usually moved most between
# runs of the same code (interquartile range up to 27% of the median), so
# throughput and the 90th percentile are the bounded metrics and the median,
# minimum and 10th percentile go to the info line.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# (metric, unit): `<layer>.<function>.<calls|self_s|yielded>` are read from the tracer
PER_LAYER = (
    ("partitions.enumerate_nc12.yielded", "count"),
    ("partitions.enumerate_nc12.self_s", "s"),
    ("partitions.enumerate_nc12.yielded_per_op", "count"),
    ("jacobi.evaluate_partition.calls", "count"),
    ("jacobi.evaluate_partition.self_s", "s"),
    ("jacobi.t_pi.self_s", "s"),
    ("jacobi.moment.self_s", "s"),
    ("algebra.LinMap.apply.calls", "count"),
    ("algebra.LinMap.apply.self_s", "s"),
    ("algebra.LinMap.apply.calls_per_op", "count"),
    ("partitions.relative_depths.calls", "count"),
    ("partitions.relative_depths.self_s", "s"),
    ("joint.free_convolve_word.self_s", "s"),
    ("jacobi.fock_moment.self_s", "s"),
    ("joint.joint_moment_free_recursion.calls", "count"),
    ("joint.joint_moment_free_recursion.self_s", "s"),
    ("joint.joint_moment.self_s", "s"),
    ("scalar.tcnc_recursion.self_s", "s"),
    ("scalar.free_convolve_scalar.self_s", "s"),
    ("scalar.nu_moments.self_s", "s"),
    ("partitions.count_family.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("jacobi.params_from_json.self_s", "s"),
    ("algebra.LinMap.from_kraus.calls", "count"),
    ("algebra.LinMap.from_kraus.self_s", "s"),
    ("algebra.LinMap.is_cp.calls", "count"),
    ("algebra.LinMap.is_cp.self_s", "s"),
    ("joint.verify_jacobi_consistency.self_s", "s"),
    ("algebra.self_s", "s"),
    ("partitions.self_s", "s"),
    ("jacobi.self_s", "s"),
    ("joint.self_s", "s"),
    ("scalar.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
)


def setup(workload: str, seed: int, workdir: str):
    """Import ncfree from this checkout, generate the inputs and warm up.

    Returns the workload class."""
    sys.path.insert(0, SRC)
    import numpy as np

    import ncfree

    if os.path.dirname(os.path.abspath(ncfree.__file__)) != os.path.join(SRC, "ncfree"):
        raise ImportError(f"ncfree imported from {ncfree.__file__}, not from {SRC}")
    import workloads

    cls = workloads.WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    warm = cls(np.random.default_rng([seed, 0]), workdir)
    warm.run(warm.next_op())
    return cls


def timed_loop(cls, seed, workdir, seconds, tracer=None):
    """Closed loop, one caller: run operations until `seconds` of wall time
    have passed.  Only `run` is timed.  Every loop of a run replays the same
    seeded operations."""
    import numpy as np

    wl = cls(np.random.default_rng([seed, 1]), workdir)
    latencies, records = [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        op = wl.next_op()
        if tracer:
            tracer.active = True
        t0 = perf_counter()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, repr(exc)
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.active = False
        records.append((op, result, error))
    return wl, latencies, records


def check_records(wl, records, budget_s):
    """Check results against the independent route until the budget is spent.

    Returns (failed, checked, first failure).  Operations that raised count as
    failed without a check."""
    failed, checked, first = 0, 0, None
    deadline = perf_counter() + budget_s
    for op, result, error in records:
        if error is None:
            if perf_counter() > deadline:
                continue
            checked += 1
            try:
                ok = wl.check(op, result)
            except Exception as exc:  # a malformed result is a wrong result
                ok, error = False, repr(exc)
            else:
                error = None if ok else "result disagrees with the independent route"
        if error is not None:
            failed += 1
            first = first or error
    return failed, checked, first


def setup_probe(workload: str, seed: int, workdir: str) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--workdir", workdir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy as np
    import ncfree

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain source tree has no SHA
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "ncfree_path": os.path.dirname(ncfree.__file__),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "loop": "closed, one caller",
    }


def latency_metrics(latencies):
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1
               else latencies * 9)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_min_ms": 1e3 * min(latencies),
        "latency_p10_ms": 1e3 * deciles[0],
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * deciles[8],
    }


def layer_metrics(tracer, traced_ops, untraced_rate, traced_rate):
    values = {
        "trace.ops": traced_ops,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.slowdown": untraced_rate / traced_rate,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        base, field = name.rsplit(".", 1)
        if field.endswith("_per_op"):
            values[name] = getattr(tracer.get(base), field[: -len("_per_op")]) / traced_ops
        elif base in LAYERS:
            values[name] = tracer.layer_self_s(base)
        else:
            values[name] = getattr(tracer.get(base), field)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["moments", "convolution", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workdir = args.workdir or os.path.join(ROOT, ".ncbench_tmp", str(os.getpid()))
    try:
        cls = setup(args.workload, args.seed, workdir)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        setups = [setup_s]
        wl, latencies, records = timed_loop(cls, args.seed, workdir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced = dict(latency_metrics(latencies), samples=len(latencies))
        if args.trace:
            import ncfree

            tracer = Tracer()
            tracer.install(ncfree)
            try:
                _, traced_lat, traced_records = timed_loop(cls, args.seed, workdir, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced_lat), untraced["ops_per_s"],
                                    latency_metrics(traced_lat)["ops_per_s"])
            units = dict(PER_LAYER)
            # the traced loop replays the untraced loop's operations; check those it ran
            records = traced_records
        else:
            setups += [setup_probe(args.workload, args.seed, workdir + "-probe")
                       for _ in range(SETUP_REPEATS - 1)]
            metrics = dict(untraced, setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
            units = dict(END_TO_END)
        failed, checked, first_failure = check_records(wl, records, CHECK_SHARE * args.seconds)
    finally:
        if not args.setup_only:
            shutil.rmtree(workdir, ignore_errors=True)
            shutil.rmtree(workdir + "-probe", ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:  # another run still uses it, or it is gone
                pass

    info = dict(
        environment(args.seed),
        workload=args.workload,
        seconds=args.seconds,
        untraced_loop=untraced,
        checked=checked,
        error_rate=failed / len(records),
        first_failure=first_failure,
        setup_samples_s=setups,
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
