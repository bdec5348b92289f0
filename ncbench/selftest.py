"""Self-tests of the benchmark itself.

    python3 ncbench/selftest.py

1. Smoke: every workload runs for about a second, untraced and traced; the
   result line must carry exactly the metrics BENCHMARK.json names, with
   their units, and no operation may fail.
2. Corruption: one result per workload (for cli, each request of one
   operation in turn) is altered after the timed loop; the checks must count
   exactly that operation as failed, so no check is vacuous.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 3


def smoke(spec) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=ROOT,
            )
            where = f"smoke {workload} trace={trace}"
            if out.returncode != 0:
                errors.append(f"{where}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            info = json.loads(out.stdout.splitlines()[-2])["info"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if any(not math.isfinite(m["value"]) for m in result["metrics"].values()):
                errors.append(f"{where}: non-finite metric value")
            if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
                errors.append(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            if info["error_rate"] != 0:
                errors.append(f"{where}: error_rate {info['error_rate']}")
            print(f"{where}: {result['attempted']} operations, error_rate {info['error_rate']}")
    return errors


def _scale_matrix(rows):
    return [[[re * (1 + 1e-6) + 1e-6, im] for re, im in row] for row in rows]


def _edit_json(edit):
    def corrupt(result):
        rc, out = result
        obj = json.loads(out)
        edit(obj)
        return rc, json.dumps(obj)

    return corrupt


CORRUPTIONS = {
    "count": lambda res: (res[0], res[1].rstrip("\n") + "1\n"),
    "table": lambda res: (res[0], res[1].rstrip("\n") + "0\n"),
    "moments": _edit_json(lambda o: o.update(value=_scale_matrix(o["value"]))),
    "joint": _edit_json(lambda o: o.update(value=_scale_matrix(o["value"]))),
    "convolve": _edit_json(lambda o: o["moments"].__setitem__(-1, _scale_matrix(o["moments"][-1]))),
    "verify": _edit_json(lambda o: o.update({"pass": False})),
}


def corrupted_results(workload, op, result):
    """(label, altered copy of `result`) pairs, one wrong answer in each."""
    if workload == "moments":
        return [(workload, result * (1 + 1e-6))]
    if workload == "convolution":
        return [(workload, result[:-1] + [result[-1] * (1 + 1e-6)])]
    out = []
    for j, (kind, _, _) in enumerate(op):
        bad = list(result)
        bad[j] = CORRUPTIONS[kind[0]](result[j])
        out.append(("cli " + " ".join(map(str, kind)), bad))
    return out


def corruption(spec) -> list[str]:
    errors = []
    workdir = os.path.join(ROOT, ".ncbench_tmp", f"selftest-{os.getpid()}")
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            cls = run.setup(workload, SEED, workdir)
            wl, _, records = run.timed_loop(cls, SEED, workdir, 1e-3)  # one operation
            failed, checked, _ = run.check_records(wl, records, math.inf)
            if failed or checked != len(records):
                errors.append(f"corruption {workload}: clean run gave {failed} failures, {checked} checked")
            op, result, error = records[0]
            for label, bad in corrupted_results(workload, op, result):
                failed, _, _ = run.check_records(wl, [(op, bad, error)] + records[1:], math.inf)
                print(f"corruption {label}: {failed} of {len(records)} counted as failed")
                if failed != 1:
                    errors.append(f"corruption {label}: {failed} failures counted, expected 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = corruption(spec) + smoke(spec)
    for e in errors:
        print("FAIL:", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
