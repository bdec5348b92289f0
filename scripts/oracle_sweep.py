#!/usr/bin/env python3
"""Random sweep comparing the partition-sum moment engine against the Fock
oracle, and the two-color partition sum against the freeness recursion,
rotating over the full algebras d = 1, 2, 3 and the diagonal ones d = 2, 3.

Two cases, each with its own random stream: the positive one (Kraus, so
completely positive, alphas and self-adjoint lambdas) and the algebraic one
(alphas from random complex dense matrices, masked to the diagonal positions
for the diagonal kind, and lambdas that are not self-adjoint).

Prints worst-case relative deviations; exit code 1 if any exceeds 1e-9.

Usage: python3 scripts/oracle_sweep.py [--trials 200] [--seed 0] [--degree 6]  (degree at most 8)
"""

import argparse
import sys
from itertools import product

import numpy as np

from ncfree.algebra import Algebra, LinMap
from ncfree.jacobi import JacobiParams, fock_moment, moment
from ncfree.joint import ORACLE_RUN_CAP, JointModel, colored_word, joint_moment, joint_moment_free_recursion
from ncfree.partitions import BLUE, RED


def rand_params(alg, rng, algebraic=False):
    d = alg.dim

    def lam():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a if algebraic else a + a.conj().T
        return np.diag(np.diag(a)).astype(complex) if alg.kind == "diagonal" else a

    def alpha():
        if algebraic:
            dense = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            if alg.kind == "diagonal":  # keep only the entries between positions i*d+i of a vectorization
                diag = np.eye(d, dtype=bool).reshape(-1)
                dense = np.where(np.outer(diag, diag), dense, 0)
            return LinMap.from_dense(alg, dense)
        if alg.kind == "diagonal":
            ks = [np.diag(rng.normal(size=d)).astype(complex) for _ in range(2)]
        else:
            ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        return LinMap.from_kraus(alg, ks)

    return JacobiParams(alg, (lam(), lam()), (alpha(),), lam(), alpha())


def rand_coeffs(alg, n, rng):
    d = alg.dim
    out = []
    for _ in range(n + 1):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out.append(np.diag(np.diag(c)).astype(complex) if alg.kind == "diagonal" else c)
    return out


def sweep(rng, trials, degree, algebraic):
    """Worst relative deviations (Fock, freeness recursion) over `trials` and `trials // 4` random cases."""
    algs = [Algebra("diagonal", 2), Algebra("full", 2), Algebra("full", 1), Algebra("diagonal", 3), Algebra("full", 3)]

    worst_fock = 0.0
    for i in range(trials):
        alg = algs[i % len(algs)]
        p = rand_params(alg, rng, algebraic)
        n = int(rng.integers(0, degree + 1))
        cs = rand_coeffs(alg, n, rng)
        a, b = moment(p, cs), fock_moment(p, cs)
        worst_fock = max(worst_fock, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1.0)))

    worst_joint = 0.0
    for i in range(max(trials // 4, 1)):
        alg = algs[i % len(algs)]
        model = JointModel(rand_params(alg, rng, algebraic), rand_params(alg, rng, algebraic))
        n = int(rng.integers(1, degree + 1))
        cs = rand_coeffs(alg, n, rng)
        for colors in product((BLUE, RED), repeat=n):
            w = colored_word(alg, cs, colors)
            a = joint_moment(model, w)
            b = joint_moment_free_recursion(model, w)
            worst_joint = max(worst_joint, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1.0)))

    return worst_fock, worst_joint


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree", type=int, default=6)
    args = ap.parse_args()
    if args.degree > ORACLE_RUN_CAP:  # every coloring of the degree, the alternating one included, meets the oracle
        ap.error(f"--degree is at most {ORACLE_RUN_CAP}, the freeness oracle's cap on color runs")
    worst = 0.0
    # the algebraic case draws from its own stream, so the positive case sees the same inputs for a seed
    for algebraic in (False, True):
        rng = np.random.default_rng([args.seed, 1] if algebraic else args.seed)
        worst_fock, worst_joint = sweep(rng, args.trials, args.degree, algebraic)
        case = " (algebraic)" if algebraic else ""
        print(f"partition sum vs Fock oracle   worst relative deviation: {worst_fock:.3e}{case}")
        print(f"two-color sum vs freeness rec  worst relative deviation: {worst_joint:.3e}{case}")
        worst = max(worst, worst_fock, worst_joint)
    sys.exit(0 if worst < 1e-9 else 1)


if __name__ == "__main__":
    main()
