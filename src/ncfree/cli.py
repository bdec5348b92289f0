"""Command-line surface: counting, moments, convolution, and verification.

Machine-first output (JSON/TSV); `--pretty` adds indentation.  Exit codes:
0 pass, 1 check failure, 2 usage/schema error, 3 degree cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import comb

import numpy as np

from .algebra import Algebra, LinMap, flip_map, matrix_to_json, negligible
from .jacobi import (
    DegreeCapError,
    bernoulli,
    fock_moment,
    moment,
    params_from_json,
    poisson_limit_check,
    semicircular,
    word_from_json,
)
from .joint import (
    JointModel,
    colored_word_from_json,
    free_convolve_moments,
    joint_moment,
    joint_moment_free_recursion,
    two_by_two_model_check,
    verify_jacobi_consistency,
)
from .partitions import count_family
from .scalar import (
    free_convolve_scalar,
    nu_moments,
    table_to_tsv,
    tcnc_limit_row,
    tcnc_recursion,
    tcnc_table,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGREE_CAP = 3


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit(payload, pretty: bool):
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True, default=_json_default))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

# |TCNC_2^{k,l}(n)| three ways, in the order `--method all` prints them; the recursion
# counts k = l only and the last two count even n only, which their callers check
_TCNC2_ROUTES = {
    "enumerate": lambda n, k, l: count_family("TCNC2^{k,l}", n, k, l),
    # M_0 = 1; asking for M_2 too lets the recursion check k >= 2 at n = 0 as at every n
    "recursion": lambda n, k, l: [1, *tcnc_recursion(k, max(n // 2, 1))][n // 2],
    "cumulant": lambda n, k, l: int(free_convolve_scalar(nu_moments(k, n), nu_moments(l, n), n)[n]),
}


def cmd_count(args) -> int:
    family, n, k, l = args.family, args.n, args.k, args.l
    if n < 0:
        raise ValueError("--n must be >= 0")
    if family == "TCNC2" and (k is None or l is None):
        raise ValueError("TCNC2 requires --k and --l")
    if family in ("NC12", "NC2"):
        if args.method not in ("enumerate", "all"):
            raise ValueError(f"--method {args.method} applies only to TCNC2")
        if l is not None:
            raise ValueError("--l applies only to TCNC2")
        counts = [("enumerate", count_family(family if k is None else family + "^k", n, k))]
    else:
        wanted = [args.method]
        if args.method == "all":
            # the recursion counts k = l >= 2 only; the other two routes count any (k, l)
            wanted = [m for m in _TCNC2_ROUTES if m != "recursion" or k == l >= 2]
        elif args.method == "recursion" and k != l:
            raise ValueError("--method recursion requires k = l")
        if n % 2 and wanted != ["enumerate"]:
            raise ValueError("recursion/cumulant methods count even degrees only")
        counts = [(m, _TCNC2_ROUTES[m](n, k, l)) for m in wanted]
    for _, value in counts:
        print(value)
    if len({v for _, v in counts}) > 1:
        print("method disagreement: " + ", ".join(f"{m}={v}" for m, v in counts), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.kmax < 2 or args.nmax < 2 or args.nmax % 2:
        raise ValueError("require --kmax >= 2 and even --nmax >= 2")
    sys.stdout.write(table_to_tsv(tcnc_table(args.kmax, args.nmax // 2)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# moments / joint / convolve
# ---------------------------------------------------------------------------


def _report(degree: int, value, other, pretty: bool) -> int:
    """Emit {degree, value}; the oracle's value `other` (None without --oracle) adds itself
    and the largest entrywise deviation from it.  Callers compute `other` before `value`,
    so an oracle past its cap exits 3 before the engine spends its sum."""
    out = {"degree": degree, "value": matrix_to_json(value)}
    if other is not None:
        out["oracle_value"] = matrix_to_json(other)
        out["max_deviation"] = float(np.max(np.abs(value - other)))
    _emit(out, pretty)
    return EXIT_OK


def cmd_moments(args) -> int:
    params = params_from_json(_load_json(args.params))
    alg, coeffs = word_from_json(_load_json(args.word))
    if alg != params.algebra:
        raise ValueError("word and parameters use different algebras")
    other = fock_moment(params, coeffs) if args.oracle else None
    return _report(len(coeffs) - 1, moment(params, coeffs), other, args.pretty)


def cmd_joint(args) -> int:
    obj = _load_json(args.model)
    try:
        model = JointModel(params_from_json(obj["params1"]), params_from_json(obj["params2"]))
    except (KeyError, TypeError) as exc:  # a field missing, or JSON of another type than an object
        raise ValueError(f"model file needs the objects params1 and params2 ({exc})") from None
    word = colored_word_from_json(_load_json(args.word))
    if word.algebra != model.algebra:
        raise ValueError("word and model use different algebras")
    other = joint_moment_free_recursion(model, word) if args.oracle else None
    return _report(word.degree, joint_moment(model, word), other, args.pretty)


def cmd_convolve(args) -> int:
    p1 = params_from_json(_load_json(args.p1))
    p2 = params_from_json(_load_json(args.p2))
    table = free_convolve_moments(JointModel(p1, p2), args.degree)
    seq = table.sequence(p1.algebra.unit())
    _emit(
        {"degree": args.degree, "moments": [matrix_to_json(m) for m in seq]},
        args.pretty,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check(name: str, ok, detail: dict) -> dict:
    return {"name": name, "pass": ok, "detail": detail}


def _suite_table() -> list[dict]:
    """The same three routes as `count --method all`, with the recursion's values taken
    from the table `ncfree table` prints."""
    checks = []
    rows = tcnc_table(6, 6)
    ok_entries = 0
    for label, rec_vals in rows:
        k = 7 if label.startswith("k>") else int(label)
        for n, rec in zip(range(2, 13, 2), rec_vals):
            vals = {m: rec if m == "recursion" else route(n, k, k) for m, route in _TCNC2_ROUTES.items()}
            if len(set(vals.values())) == 1:
                ok_entries += 1
            else:
                checks.append(_check(f"table[k={label}, n={n}]", False, vals))
    checks.append(_check("table entries (enumerate = recursion = cumulant)", ok_entries == 36,
                         {"agreeing_entries": ok_entries, "expected": 36}))
    row2 = rows[0][1]
    checks.append(_check("k=2 row equals central binomials", row2 == [comb(2 * n, n) for n in range(1, 7)],
                         {"row": row2}))
    label, row = rows[-1]
    checks.append(_check("stabilized row equals 2^n Catalan(n)", label == "k>6" and row == tcnc_limit_row(6),
                         {"label": label, "row": row}))
    return checks


def _suite_counterexample() -> list[dict]:
    algd = Algebra("diagonal", 2)
    bflip = free_convolve_moments(
        JointModel(
            bernoulli(algd, algd.zero(), algd.zero(), flip_map()),
            bernoulli(algd, algd.zero(), algd.zero(), LinMap.identity(algd)),
        ),
        4,
    )
    res = verify_jacobi_consistency(bflip)
    checks = [_check("Bernoulli(flip) boxplus Bernoulli(identity) is not Jacobi", not res["consistent"],
                     {"residual": res["residual"], "witness": res.get("witness")})]
    rng = np.random.default_rng(7)
    alg2 = Algebra("full", 2)
    k1 = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
    k2 = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
    s1 = semicircular(alg2, LinMap.from_kraus(alg2, k1))
    s2 = semicircular(alg2, LinMap.from_kraus(alg2, k2))
    res2 = verify_jacobi_consistency(free_convolve_moments(JointModel(s1, s2), 4))
    checks.append(_check("semicircular boxplus semicircular stays Jacobi", bool(res2["consistent"]),
                         {"residual": res2["residual"]}))
    return checks


def _suite_two_by_two() -> list[dict]:
    samples = [(3.0, 3.0), (3.0, 2.7), (4.0, 2.0), (5.0, 2.0), (-3.0, -3.0),
               (2.5, 4.0), (4.0, 4.0), (10.0, 0.9), (-5.0, -2.0), (7.0, 3.0)]
    worst, ok = 0.0, True
    for lam, gam in samples:
        rep = two_by_two_model_check(lam, gam, terms=80)
        worst = max(worst, rep["g_mu_diff"], rep["g_conv_diff"], rep["subordination_residual"])
        g_diffs = [rep["g_mu_diff"], rep["g_conv_diff"]]
        ok = ok and negligible(g_diffs, rep["g_mu_closed"], rep["g_conv_closed"])
        ok = ok and negligible(rep["subordination_residual"], lam, gam)
    checks = [_check("closed forms vs series at 10 sample points", ok, {"worst_residual": worst})]
    z = 3.0
    rep = two_by_two_model_check(z, z)
    arc = float(np.sqrt(z * z - 4))
    diag = np.diag(rep["f_conv_closed"]).real
    checks.append(_check("lambda = gamma reduces to the arcsine F-transform", negligible(diag - arc, diag, arc),
                         {"entries": list(diag), "sqrt(z^2-4)": arc}))
    return checks


def _suite_poisson_limit() -> list[dict]:
    errs = {}
    for n_steps in (10, 100, 1000):
        approx, target = poisson_limit_check(n_steps, 1.0, 1.0, 1.0, degree=4)
        errs[n_steps] = max(abs(a - t) for a, t in zip(approx, target))
    r1 = errs[10] / errs[100]
    r2 = errs[100] / errs[1000]
    ok = 5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0
    return [_check("degree-4 error decays like 1/N (N = 10, 100, 1000)", ok,
                   {"errors": {str(k): v for k, v in errs.items()}, "ratios": [r1, r2]})]


SUITES = {
    "table": _suite_table,
    "counterexample": _suite_counterexample,
    "two_by_two": _suite_two_by_two,
    "poisson_limit": _suite_poisson_limit,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"suites": {}}
    all_pass = True
    for name in names:
        checks = SUITES[name]()
        suite_pass = all(c["pass"] for c in checks)
        all_pass = all_pass and suite_pass
        report["suites"][name] = {"pass": suite_pass, "checks": checks}
    report["pass"] = all_pass
    _emit(report, args.pretty)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncfree")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count non-crossing partition families", parents=[common])
    p.add_argument("--family", required=True, choices=["NC12", "NC2", "TCNC2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--method", default="enumerate", choices=["enumerate", "recursion", "cumulant", "all"],
                   help="enumerate (the default) is the exact first-return count, and builds no partition")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="TSV table of |TCNC_2^{k,k}(n)|", parents=[common])
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("moments", help="moment of a word under Jacobi parameters", parents=[common])
    p.add_argument("--params", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("joint", help="joint moment of a two-color word", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("convolve", help="free convolution moment sequence", parents=[common])
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("verify", help="run named acceptance suites", parents=[common])
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.set_defaults(func=cmd_verify)

    return ap


@functools.cache  # one parser per process, built on first use; parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE_CAP
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
