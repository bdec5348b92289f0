#!/usr/bin/env python3
"""Random sweep comparing the partition-sum moment engine against the Fock
oracle, and the two-color partition sum against the freeness recursion,
rotating over the full algebras d = 1, 2, 3 and the diagonal ones d = 2, 3.

Prints worst-case relative deviations; exit code 1 if either exceeds 1e-9.

Usage: python3 scripts/oracle_sweep.py [--trials 200] [--seed 0] [--degree 6]
"""

import argparse
import sys
from itertools import product

import numpy as np

from ncfree.algebra import Algebra, LinMap
from ncfree.jacobi import JacobiParams, fock_moment, moment
from ncfree.joint import JointModel, colored_word, joint_moment, joint_moment_free_recursion
from ncfree.partitions import BLUE, RED


def rand_params(alg, rng):
    d = alg.dim

    def sa():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + a.conj().T
        return np.diag(np.diag(a)).astype(complex) if alg.kind == "diagonal" else a

    def cp():
        if alg.kind == "diagonal":
            ks = [np.diag(rng.normal(size=d)).astype(complex) for _ in range(2)]
        else:
            ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        return LinMap.from_kraus(alg, ks)

    return JacobiParams(alg, (sa(), sa()), (cp(),), sa(), cp())


def rand_coeffs(alg, n, rng):
    d = alg.dim
    out = []
    for _ in range(n + 1):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out.append(np.diag(np.diag(c)).astype(complex) if alg.kind == "diagonal" else c)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree", type=int, default=6)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    algs = [Algebra("diagonal", 2), Algebra("full", 2), Algebra("full", 1), Algebra("diagonal", 3), Algebra("full", 3)]

    worst_fock = 0.0
    for i in range(args.trials):
        alg = algs[i % len(algs)]
        p = rand_params(alg, rng)
        n = int(rng.integers(0, args.degree + 1))
        cs = rand_coeffs(alg, n, rng)
        a, b = moment(p, cs), fock_moment(p, cs)
        worst_fock = max(worst_fock, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1.0)))

    worst_joint = 0.0
    for i in range(max(args.trials // 4, 1)):
        alg = algs[i % len(algs)]
        model = JointModel(rand_params(alg, rng), rand_params(alg, rng))
        n = int(rng.integers(1, args.degree + 1))
        cs = rand_coeffs(alg, n, rng)
        for colors in product((BLUE, RED), repeat=n):
            w = colored_word(alg, cs, colors)
            a = joint_moment(model, w)
            b = joint_moment_free_recursion(model, w)
            worst_joint = max(worst_joint, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1.0)))

    print(f"partition sum vs Fock oracle   worst relative deviation: {worst_fock:.3e}")
    print(f"two-color sum vs freeness rec  worst relative deviation: {worst_joint:.3e}")
    sys.exit(0 if max(worst_fock, worst_joint) < 1e-9 else 1)


if __name__ == "__main__":
    main()
