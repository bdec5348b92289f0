"""The three seeded workloads and the independent route each result is
checked against.

A workload makes its next operation (`next_op()`), runs one operation through
ncfree's public API (`run(op)`, the only timed part) and checks a result
(`check(op, result)`, outside the timed region).  Inputs come only
from the `numpy.random.Generator` passed in, so a seed fixes them.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import numpy as np

import ncfree
import ncfree.cli
import ncfree.jacobi
import ncfree.joint

REL_TOL = 1e-9


def rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry deviation, relative to the reference's largest entry (floor 1)."""
    return float(np.max(np.abs(value - ref)) / max(float(np.max(np.abs(ref))), 1.0))


def rand_element(rng, alg, self_adjoint=True) -> np.ndarray:
    d = alg.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if self_adjoint:
        a = a + a.conj().T
    return np.diag(np.diag(a)) if alg.kind == "diagonal" else a


def rand_kraus_map(rng, alg, nk=2):
    """A completely positive map with `nk` Kraus operators; diagonal ones for
    the diagonal algebra, so that the map preserves it."""
    return ncfree.LinMap.from_kraus(alg, [rand_element(rng, alg, self_adjoint=False) for _ in range(nk)])


def rand_params(rng, alg, head=2):
    return ncfree.JacobiParams(
        alg,
        tuple(rand_element(rng, alg) for _ in range(head)),
        tuple(rand_kraus_map(rng, alg) for _ in range(head)),
        rand_element(rng, alg),
        rand_kraus_map(rng, alg),
        positive=True,
    )


def rand_meixner_pair(rng, alg):
    lam, alpha = rand_element(rng, alg), rand_kraus_map(rng, alg)
    return (
        ncfree.meixner(alg, lam, alpha, rand_kraus_map(rng, alg)),
        ncfree.meixner(alg, lam, alpha, rand_kraus_map(rng, alg)),
    )


def meixner_oracle(p1, p2, b, degree) -> list[np.ndarray]:
    """Moments of p1 boxplus p2 at (X b)^n from the Meixner semigroup law,
    evaluated on the Fock space rather than by partition sums."""
    conv = ncfree.meixner_convolve(p1, p2)
    one = p1.algebra.unit()
    return [ncfree.fock_moment(conv, [one] + [b] * n) for n in range(degree + 1)]


class Moments:
    """One B-valued moment of a fresh random degree-10 word per operation."""

    name = "moments"
    ALGEBRAS = (("full", 2), ("diagonal", 2), ("full", 3))
    DEGREE = 10

    def __init__(self, rng, workdir=None):
        self.rng = rng
        self.count = 0

    def next_op(self):
        alg = ncfree.Algebra(*self.ALGEBRAS[self.count % len(self.ALGEBRAS)])
        self.count += 1
        params = rand_params(self.rng, alg)
        return params, [rand_element(self.rng, alg, self_adjoint=False) for _ in range(self.DEGREE + 1)]

    def run(self, op):
        return ncfree.moment(*op)

    def check(self, op, result) -> bool:
        return rel_dev(result, ncfree.fock_moment(*op)) <= REL_TOL


class Convolution:
    """The degree 0..7 moment sequence of a free convolution of two Meixner
    laws at a fresh random self-adjoint b per operation."""

    name = "convolution"
    ALGEBRAS = (("full", 2), ("diagonal", 2))
    DEGREE = 7

    def __init__(self, rng, workdir=None):
        self.rng = rng
        self.count = 0

    def next_op(self):
        alg = ncfree.Algebra(*self.ALGEBRAS[self.count % len(self.ALGEBRAS)])
        self.count += 1
        p1, p2 = rand_meixner_pair(self.rng, alg)
        return p1, p2, rand_element(self.rng, alg)

    def run(self, op):
        p1, p2, b = op
        return ncfree.free_convolve_moments(ncfree.JointModel(p1, p2), self.DEGREE).sequence(b)

    def check(self, op, result) -> bool:
        p1, p2, b = op
        ref = meixner_oracle(p1, p2, b, self.DEGREE)
        return len(result) == len(ref) and all(rel_dev(x, y) <= REL_TOL for x, y in zip(result, ref))


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class Cli:
    """In-process `ncfree.cli.main(argv)` calls with stdout captured.  One
    operation is a mix of small requests: each kind below once, in a seeded
    order, with fresh seeded input files.  The structure of each kind
    (degrees, colour patterns, suites) is fixed, so the work per operation
    does not depend on the seed; the values in the files do."""

    name = "cli"
    KINDS = (
        ("count", 8),
        ("count", 10),
        ("count", 12),
        ("table",),
        ("moments", "full"),
        ("moments", "diagonal"),
        ("joint", "full", "bbrrbbrr"),
        ("joint", "diagonal", "rrbbrrbb"),
        ("convolve",),
        ("verify", "counterexample"),
        ("verify", "two_by_two"),
        ("verify", "poisson_limit"),
    )
    DEGREE = 8
    CONVOLVE_DEGREE = 4

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = workdir
        self.count = 0
        self.order = [self.KINDS[i] for i in rng.permutation(len(self.KINDS))]

    def _write(self, tag: str, obj) -> str:
        path = os.path.join(self.workdir, f"{self.count}-{tag}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def next_op(self):
        # the previous operation's files are no longer read: its results were captured
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        self.count += 1
        return [self._request(kind) for kind in self.order]

    def _request(self, kind):
        rng = self.rng
        jacobi = ncfree.jacobi
        if kind[0] == "count":
            k = str(rng.integers(2, 7))
            return kind, ["count", "--family", "TCNC2", "--method", "all", "--n", str(kind[1]), "--k", k, "--l", k], None
        if kind[0] == "table":
            return kind, ["table", "--kmax", "6", "--nmax", "12"], None
        if kind[0] == "moments":
            alg = ncfree.Algebra(kind[1], 2)
            params = self._write("params", jacobi.params_to_json(rand_params(rng, alg)))
            coeffs = [rand_element(rng, alg, self_adjoint=False) for _ in range(self.DEGREE + 1)]
            word = self._write("word", jacobi.word_to_json(alg, coeffs))
            return kind, ["moments", "--params", params, "--word", word, "--oracle"], None
        if kind[0] == "joint":
            alg = ncfree.Algebra(kind[1], 2)
            model = {"params1": jacobi.params_to_json(rand_params(rng, alg)),
                     "params2": jacobi.params_to_json(rand_params(rng, alg))}
            coeffs = [rand_element(rng, alg, self_adjoint=False) for _ in range(len(kind[2]) + 1)]
            word = ncfree.joint.colored_word_to_json(ncfree.colored_word(alg, coeffs, list(kind[2])))
            return kind, ["joint", "--model", self._write("model", model), "--word", self._write("cword", word), "--oracle"], None
        if kind[0] == "convolve":
            p1, p2 = rand_meixner_pair(rng, ncfree.Algebra("full", 2))
            argv = ["convolve", "--p1", self._write("p1", jacobi.params_to_json(p1)),
                    "--p2", self._write("p2", jacobi.params_to_json(p2)), "--degree", str(self.CONVOLVE_DEGREE)]
            return kind, argv, (p1, p2)
        return kind, ["verify", "--suite", kind[1]], None

    def run(self, op):
        results = []
        for _, argv, _ in op:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    rc = ncfree.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
            results.append((rc, out.getvalue()))
        return results

    def check(self, op, result) -> bool:
        return len(result) == len(op) and all(self._check_request(r, res) for r, res in zip(op, result))

    def _check_request(self, request, result) -> bool:
        kind, _, extra = request
        rc, out = result
        if rc != 0:
            return False
        if kind[0] == "count":
            values = out.split()
            return len(values) == 3 and len(set(values)) == 1
        if kind[0] == "table":
            rows = {line.split("\t")[0]: [int(v) for v in line.split("\t")[1:]] for line in out.splitlines()[1:]}
            catalan = [comb(2 * n, n) // (n + 1) for n in range(1, 7)]
            return (rows.get("2") == [comb(2 * n, n) for n in range(1, 7)]
                    and rows.get("k>6") == [2**n * c for n, c in enumerate(catalan, 1)])
        obj = json.loads(out)
        if kind[0] in ("moments", "joint"):
            return obj["degree"] == self.DEGREE and rel_dev(_matrix(obj["value"]), _matrix(obj["oracle_value"])) <= REL_TOL
        if kind[0] == "convolve":
            p1, p2 = extra
            ref = meixner_oracle(p1, p2, p1.algebra.unit(), self.CONVOLVE_DEGREE)
            got = [_matrix(m) for m in obj["moments"]]
            return len(got) == len(ref) and all(rel_dev(x, y) <= REL_TOL for x, y in zip(got, ref))
        return obj["pass"] is True


WORKLOADS = {w.name: w for w in (Moments, Convolution, Cli)}
