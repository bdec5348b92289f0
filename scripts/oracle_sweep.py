#!/usr/bin/env python3
"""Random sweep of the moment engines against their independent oracles,
rotating over the full algebras d = 1, 2, 3 and the diagonal ones d = 2, 3.

One table, CHECKS, names every check, its route and its reach.  A check is a
function of (algebra, rng, case, degree) that draws its laws and word from
the script's one builder and returns (engine value, oracle value):

  fock        moment vs fock_moment
  freeness    joint_moment vs joint_moment_free_recursion, every coloring of the word
  meixner     free_convolve_word of a Meixner pair vs fock_moment of meixner_convolve
  epi         joint_moment of b r b r ... vs the sum of e_pi over its colored NC_{1,2} partitions
  colourings  free_convolve_word vs the sum of joint_moment over all 2^n colorings
  free-fock   nc_sum vs its free-product Fock oracle _fock, on random per-position colour sets
  cf          moment of b_0 = 1, b_i = b vs coefficient n of cf_series at depth n//2 + 1

--degree D is the top degree of every check, and each stops at its own reach:
freeness at ORACLE_RUN_CAP, fock where the Fock oracle meets FOCK_ENTRY_CAP
(the degree cap, or 13 on d = 3), free-fock where two colours meet it but at
most at 11 (9 on d = 3), epi and cf at the degree cap, meixner at 11 and
colourings at 9.  Trial i of a check runs on the i-th algebra of the rotation.
In the positive case the first round of the rotation runs at the top degree;
every other trial draws its degree from 0 to the top, which keeps a sweep to
degree 16 under a minute on two cores.  A freeness trial checks all 2^n colorings of its
word, so that check runs a quarter of the trials.

Two cases, each with its own random stream: the positive one (Kraus, so
completely positive, alphas and self-adjoint lambdas) and the algebraic one
(alphas from random complex dense matrices, masked to the diagonal positions
for the diagonal kind, and lambdas that are not self-adjoint).  Every law
draws its heads of lambdas and of alphas with 0-2 entries each.

A deviation is max |engine - oracle| over the largest entry of the oracle,
taken word by word.  Prints, per check and case, the route, the top degree
run, the worst deviation and the time; exit code 1 if any exceeds 1e-9.

Usage: python3 scripts/oracle_sweep.py [--trials 200] [--seed 0] [--degree 6]
"""

import argparse
import sys
import time
from itertools import product

import numpy as np

from ncfree.algebra import Algebra, LinMap
from ncfree.jacobi import (FOCK_ENTRY_CAP, JacobiParams, _fock, cf_series, fock_moment, meixner, meixner_convolve,
                           moment, nc_sum)
from ncfree.joint import (ORACLE_RUN_CAP, JointModel, colored_word, e_pi, free_convolve_word, joint_moment,
                          joint_moment_free_recursion)
from ncfree.partitions import BLUE, DEGREE_CAP, RED, ColoredPartition, Partition12, _colored_nc12

TOLERANCE = 1e-9
# full d = 1 comes last: four trials cover both kinds at d = 2 and d = 3
ALGEBRAS = [Algebra("full", 2), Algebra("diagonal", 2), Algebra("diagonal", 3), Algebra("full", 3), Algebra("full", 1)]


# -- the builder -----------------------------------------------------------------


def rand_element(alg, rng, self_adjoint=False):
    d = alg.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = a + a.conj().T if self_adjoint else a
    return np.diag(np.diag(a)) if alg.kind == "diagonal" else a


def rand_lam(alg, rng, algebraic):
    return rand_element(alg, rng, self_adjoint=not algebraic)


def rand_alpha(alg, rng, algebraic):
    d = alg.dim
    if algebraic:
        dense = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        if alg.kind == "diagonal":  # keep only the entries between positions i*d+i of a vectorization
            diag = np.eye(d, dtype=bool).reshape(-1)
            dense = np.where(np.outer(diag, diag), dense, 0)
        return LinMap.from_dense(alg, dense)
    if alg.kind == "diagonal":
        ks = [np.diag(rng.normal(size=d)).astype(complex) for _ in range(2)]
    else:
        ks = [rand_element(alg, rng) for _ in range(2)]
    return LinMap.from_kraus(alg, ks)


def rand_params(alg, rng, algebraic):
    """A law whose heads of lambdas and of alphas hold 0-2 entries each, drawn apart."""
    n_lam, n_alpha = rng.integers(0, 3, size=2)
    return JacobiParams(
        alg,
        tuple(rand_lam(alg, rng, algebraic) for _ in range(n_lam)),
        tuple(rand_alpha(alg, rng, algebraic) for _ in range(n_alpha)),
        rand_lam(alg, rng, algebraic),
        rand_alpha(alg, rng, algebraic),
    )


def rand_model(alg, rng, algebraic):
    return JointModel(rand_params(alg, rng, algebraic), rand_params(alg, rng, algebraic))


def rand_meixner_pair(alg, rng, algebraic):
    """Two Meixner laws that share lambda and alpha, so that meixner_convolve adds their eta maps."""
    lam, alpha = rand_lam(alg, rng, algebraic), rand_alpha(alg, rng, algebraic)
    return [meixner(alg, lam, alpha, rand_alpha(alg, rng, algebraic)) for _ in range(2)]


def rand_word(alg, rng, n):
    """The coefficients b_0..b_n of a degree-n word."""
    return [rand_element(alg, rng) for _ in range(n + 1)]


# -- the checks: each returns (engine value, oracle value) -------------------------


def check_fock(alg, rng, algebraic, n):
    p = rand_params(alg, rng, algebraic)
    cs = rand_word(alg, rng, n)
    return moment(p, cs), fock_moment(p, cs)


def check_free_fock(alg, rng, algebraic, n):
    params = rand_model(alg, rng, algebraic).by_color
    colors = [((BLUE,), (RED,), (BLUE, RED))[i] for i in rng.integers(0, 3, size=n)]
    cs = rand_word(alg, rng, n)
    return nc_sum(cs, colors, params), _fock(cs, colors, params)


def check_freeness(alg, rng, algebraic, n):
    model = rand_model(alg, rng, algebraic)
    cs = rand_word(alg, rng, n)
    words = [colored_word(alg, cs, colors) for colors in product((BLUE, RED), repeat=n)]
    return tuple(np.array([f(model, w) for w in words]) for f in (joint_moment, joint_moment_free_recursion))


def check_meixner(alg, rng, algebraic, n):
    p1, p2 = rand_meixner_pair(alg, rng, algebraic)
    cs = rand_word(alg, rng, n)
    return free_convolve_word(JointModel(p1, p2), cs), fock_moment(meixner_convolve(p1, p2), cs)


def check_epi(alg, rng, algebraic, n):
    model = rand_model(alg, rng, algebraic)
    w = colored_word(alg, rand_word(alg, rng, n), [(BLUE, RED)[i % 2] for i in range(n)])
    parts = (
        ColoredPartition(Partition12(n, tuple(blk for blk, _, _ in t)), tuple(c for _, c, _ in t))
        for t in _colored_nc12(n, [(c,) for c in w.colors])
    )
    return joint_moment(model, w), sum(e_pi(model, w, p) for p in parts)


def check_colourings(alg, rng, algebraic, n):
    model = rand_model(alg, rng, algebraic)
    cs = rand_word(alg, rng, n)
    every = sum(joint_moment(model, colored_word(alg, cs, colors)) for colors in product((BLUE, RED), repeat=n))
    return free_convolve_word(model, cs), every


def check_cf(alg, rng, algebraic, n):
    p = rand_params(alg, rng, algebraic)
    b = rand_element(alg, rng)
    return moment(p, [alg.unit()] + [b] * n), cf_series(p, n // 2 + 1, b, n)[n]


def fock_reach(alg, colours=1):
    """The top degree of a word whose deepest Fock level, colours^(n//2) labellings of (d^2)^(n//2 + 1) entries,
    fits FOCK_ENTRY_CAP."""
    fits = (n for n in range(DEGREE_CAP + 1) if colours ** (n // 2) * alg.dim ** (2 * (n // 2 + 1)) <= FOCK_ENTRY_CAP)
    return max(fits)


# name: (route, reach on an algebra, check, trials per word drawn); a check draws from the stream of its position,
# so a new check goes last and the others keep their inputs
CHECKS = {
    "fock": ("partition sum vs Fock oracle", fock_reach, check_fock, 1),
    "freeness": ("two-color sum vs freeness recursion", lambda alg: ORACLE_RUN_CAP, check_freeness, 4),
    "meixner": ("Meixner pair boxplus vs Fock oracle of its convolution", lambda alg: 11, check_meixner, 1),
    "epi": ("joint moment of brbr... vs sum of E_pi", lambda alg: DEGREE_CAP, check_epi, 1),
    "colourings": ("free convolution vs sum over 2^n colorings", lambda alg: 9, check_colourings, 1),
    "free-fock": ("partition sum vs free-product Fock, mixed colour sets", lambda alg: min(fock_reach(alg, 2), 11),
                  check_free_fock, 1),
    "cf": ("moment of (X b)^n vs cf_series at depth n//2 + 1", lambda alg: DEGREE_CAP, check_cf, 1),
}


def deviation(engine, oracle):
    """max |engine - oracle| over the largest entry of the oracle, worst over a stack of words.  Exact
    agreement reads 0, even on an all-zero oracle (a Meixner law's first moment); NaN stays NaN."""
    err = np.max(np.abs(engine - oracle), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(err == 0, 0.0, err / np.max(np.abs(oracle), axis=(-2, -1)))))


def sweep(name, rng, trials, degree, algebraic):
    """Worst deviation of a check over its share of `trials` random words, and the top degree it ran."""
    _, reach, check, share = CHECKS[name]
    devs, top_run = [], 0
    for i in range(max(trials // share, 1)):
        alg = ALGEBRAS[i % len(ALGEBRAS)]
        top = min(degree, reach(alg))
        n = top if i < len(ALGEBRAS) and not algebraic else int(rng.integers(0, top + 1))
        devs.append(deviation(*check(alg, rng, algebraic, n)))
        top_run = max(top_run, n)
    return float(np.max(devs)), top_run


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree", type=int, default=6)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    if args.degree < 0:
        ap.error("--degree must be at least 0")
    failed = False
    for algebraic in (False, True):
        case = " (algebraic)" if algebraic else ""
        for k, (name, (route, *_)) in enumerate(CHECKS.items()):
            # one stream per case and check: a check's inputs for a seed depend on no other check
            rng = np.random.default_rng([args.seed, int(algebraic), k])
            start = time.perf_counter()
            worst, top = sweep(name, rng, args.trials, args.degree, algebraic)
            secs = time.perf_counter() - start
            line = f"{name:<10} {route:<56} degree {top:>2}  worst deviation {worst:.3e}  {secs:6.2f} s{case}"
            print(line, flush=True)
            failed |= not worst <= TOLERANCE
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
