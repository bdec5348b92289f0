"""The one tolerance rule: verdicts depend on the inputs, not on their units."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree.algebra import Algebra, LinMap, flip_map, is_self_adjoint
from ncfree.jacobi import (
    JacobiParams,
    bernoulli,
    fock_moment,
    meixner,
    meixner_convolve,
    meixner_recognize,
    moment,
    scalar_jacobi,
    semicircular,
)
from ncfree.joint import JointModel, free_convolve_moments, verify_jacobi_consistency
from reference import linmap_from_action


def rand_element(rng, alg, self_adjoint=True):
    d = alg.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if self_adjoint:
        a = a + a.conj().T
    return np.diag(np.diag(a)) if alg.kind == "diagonal" else a


def rand_kraus(rng, alg, scale=1.0):
    return LinMap.from_kraus(alg, [scale * rand_element(rng, alg, self_adjoint=False) for _ in range(2)])


def rand_params(rng, alg):
    return JacobiParams(
        alg,
        tuple(rand_element(rng, alg) for _ in range(2)),
        tuple(rand_kraus(rng, alg) for _ in range(2)),
        rand_element(rng, alg),
        rand_kraus(rng, alg),
        positive=True,
    )


def rescaled(p, s):
    """The law of s X: lambda scales by s, alpha by s^2."""
    return JacobiParams(
        p.algebra,
        tuple(s * l for l in p.head_lambda),
        tuple(a.scale(s * s) for a in p.head_alpha),
        s * p.tail_lambda,
        p.tail_alpha.scale(s * s),
        positive=p.positive,
    )


def is_jacobi_sum(p1, p2):
    return verify_jacobi_consistency(free_convolve_moments(JointModel(p1, p2), 4))["consistent"]


# -- one regression per unit-dependent verdict ---------------------------------


def test_tiny_lambda_is_not_dropped():
    p = scalar_jacobi(tail_lambda=1e-15, tail_alpha=1e-40)
    one = np.eye(1)
    got, oracle = moment(p, [one] * 3)[0, 0], fock_moment(p, [one] * 3)[0, 0]
    assert abs(got - 1e-30) <= 1e-9 * 1e-30
    assert abs(got - oracle) <= 1e-9 * 1e-30


def test_semicircular_sum_stays_jacobi_at_large_kraus_scale():
    alg = Algebra("full", 2)
    rng = np.random.default_rng(7)
    for scale in (1e-2, 1.0, 1e2, 1e4):
        s1, s2 = (semicircular(alg, rand_kraus(rng, alg, scale)) for _ in range(2))
        assert is_jacobi_sum(s1, s2), scale


def test_meixner_convolve_accepts_matching_laws_at_large_kraus_scale():
    alg = Algebra("full", 2)
    rng = np.random.default_rng(5)
    lam = rand_element(rng, alg)
    alpha, e1, e2 = (rand_kraus(rng, alg, 1e4) for _ in range(3))
    conv = meixner_convolve(meixner(alg, lam, alpha, e1), meixner(alg, lam, alpha, e2))
    assert conv.isclose(meixner(alg, lam, alpha, e1 + e2))


def test_levels_past_twelve_are_compared():
    alg = Algebra("full", 2)
    rng = np.random.default_rng(9)
    lam, alpha, eta = rand_element(rng, alg), rand_kraus(rng, alg), rand_kraus(rng, alg)
    law = meixner(alg, lam, alpha, eta)
    lams = [alg.zero()] + [lam] * 13
    alphas = (eta,) + (eta + alpha,) * 13
    same = JacobiParams(alg, tuple(lams), alphas, lam, eta + alpha)
    assert same.isclose(law) and meixner_recognize(same) is not None
    lams[13] = lam + 0.5 * alg.unit()  # level 14
    off = JacobiParams(alg, tuple(lams), alphas, lam, eta + alpha)
    assert not off.isclose(law) and not law.isclose(off)
    assert meixner_recognize(off) is None


def test_diagonal_membership_is_relative():
    alg = Algebra("diagonal", 2)
    assert not alg.contains(1e-13 * np.ones((2, 2)))
    big = np.diag([1e6, 2e6]) + 1e-9 * np.array([[0, 1], [1, 0]])
    assert alg.contains(big)
    assert alg.contains(alg.zero())


# -- the verdicts and the moments scale with the input -------------------------


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=0, max_value=4),
    k=st.integers(min_value=-6, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scale_covariance(kind, d, n, k, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    s = 10.0**k

    # moments: lambda -> s lambda, alpha -> s^2 alpha sends a degree-n moment to s^n times it
    p = rand_params(rng, alg)
    coeffs = [rand_element(rng, alg, self_adjoint=False) for _ in range(n + 1)]
    m = moment(p, coeffs)
    bound = 1e-9 * max(1.0, float(np.max(np.abs(m))))
    assert np.max(np.abs(moment(rescaled(p, s), coeffs) / s**n - m)) <= bound
    assert np.max(np.abs(fock_moment(rescaled(p, s), coeffs) / s**n - m)) <= bound

    # membership and self-adjointness, near and far from the boundary
    h = rand_element(rng, Algebra("full", d))
    noise = rand_element(rng, Algebra("full", d), self_adjoint=False)
    elements = [h, h + 1e-12 * noise, h + 1e-3 * noise, np.diag(np.diag(h)) + 1e-12 * noise]
    for x in elements:
        assert alg.contains(s * x) == alg.contains(x)
        assert is_self_adjoint(s * x) == is_self_adjoint(x)

    # complete positivity of dense maps: a Kraus map and the transpose
    maps = [LinMap.from_dense(alg, rand_kraus(rng, alg).dense), linmap_from_action(alg, lambda b: b.T)]
    for phi in maps:
        assert phi.scale(s * s).is_cp() == phi.is_cp()

    # Meixner layout, for a Meixner law and for generic parameters
    law = meixner(alg, rand_element(rng, alg), rand_kraus(rng, alg), rand_kraus(rng, alg))
    for q in (law, p):
        assert (meixner_recognize(rescaled(q, s)) is None) == (meixner_recognize(q) is None)
    assert meixner_recognize(rescaled(law, s)) is not None

    # the degree-4 Jacobi test, for a sum that is Jacobi and, in D_2, one that is not
    pairs = [(semicircular(alg, rand_kraus(rng, alg)), semicircular(alg, rand_kraus(rng, alg)))]
    if (kind, d) == ("diagonal", 2):
        zero = alg.zero()
        pairs.append((bernoulli(alg, zero, zero, flip_map()), bernoulli(alg, zero, zero, LinMap.identity(alg))))
    verdicts = [is_jacobi_sum(p1, p2) for p1, p2 in pairs]
    assert verdicts == [is_jacobi_sum(rescaled(p1, s), rescaled(p2, s)) for p1, p2 in pairs]
    assert verdicts == [True, False][: len(pairs)]
