"""The one tolerance rule: verdicts depend on the inputs, not on their units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree.algebra import TOL, Algebra, LinMap, flip_map, is_self_adjoint, negligible
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


# -- the rule itself ------------------------------------------------------------


def test_negligible_is_relative_to_the_largest_scale_entry():
    a = np.array([[1e6, 0], [0, 2.0]])
    assert negligible(0.5 * TOL * 1e6, a) and not negligible(2 * TOL * 1e6, a)
    assert negligible(np.full((2, 2), 1e-3), a, 1.0)  # the largest entry of all the scales sets the bound
    assert not negligible(1e-3, 1.0, 2.0)
    assert negligible(1e-30 * (1 + 1j), 1e-20j) and not negligible(1e-27, 1e-20j)


def test_negligible_is_false_with_a_nan_anywhere():
    nan_x = np.array([0.0, np.nan])
    assert not negligible(nan_x, 1.0)
    assert not negligible(np.nan, 1.0)
    assert not negligible(0.0, np.array([1.0, np.nan]))
    assert not negligible(0.0, 1.0, np.nan) and not negligible(0.0, np.nan, 1.0)
    assert not negligible(np.array([[0.0, 1.0], [0.0, np.nan]]), np.ones((2, 2)), axis=-1)


def test_negligible_against_a_zero_scale_admits_only_zero():
    assert negligible(0.0, 0.0) and negligible(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not negligible(1e-300, 0.0) and not negligible(np.full((2, 2), 5e-324), np.zeros((2, 2)))
    assert negligible(0.0) and not negligible(1e-300)  # no scale at all is a zero scale
    assert negligible(np.zeros(0), np.zeros(0)) and negligible([], 0.0)  # empty operands reduce to 0


def test_negligible_judges_each_slice_on_its_own_with_axis():
    big, small = np.full((2, 2), 1e6), np.full((2, 2), 1e-6)
    scale, x = np.stack([big, small]), np.full((2, 2, 2), 1e-3)
    assert negligible(x, scale)  # the whole stack: 1e-3 <= TOL * 1e6
    assert not negligible(x, scale, axis=(-2, -1))  # the second slice against its own 1e-6
    assert negligible(x[:1], scale[:1], axis=(-2, -1))
    assert negligible(np.array([[1e-3, 0.0], [0.0, 1e-15]]), np.array([[1e6, 1.0], [1e6, 1.0]]), axis=0)
    assert not negligible(np.array([[1e-3, 1e-3], [0.0, 1e-15]]), np.array([[1e6, 1.0], [1e6, 1.0]]), axis=0)
    rows = np.array([[1e6, 0.0], [1.0, 0.0]])
    assert negligible([[1e-3, 0.0], [1e-9, 0.0]], rows, axis=-1)
    assert not negligible([[1e-3, 0.0], [1e-7, 0.0]], rows, axis=-1)


def test_negligible_takes_lists_and_python_numbers():
    assert negligible([1e-9, -1e-9j], [1.0, 2.0]) and not negligible([1e-3, 0.0], [1.0, 2.0])
    assert negligible([[0.0, 1e-9], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], axis=(-2, -1))
    assert negligible(1e-10, 1, 2.0) and not negligible(1e-7, 1, 2.0)
    assert negligible(1e-9j, 1.0 + 0j) and negligible(0, 0)
    assert type(negligible(0.0, 1.0)) is bool and type(negligible(np.zeros((2, 2)), np.ones((2, 2)), axis=-1)) is bool


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


def test_positive_parameters_are_judged_one_by_one():
    # the lambdas and the alphas' Choi matrices are tested as one stack each: a small offender beside a large
    # valid entry must still be refused, so each entry is judged against its own scale, not the stack's
    alg = Algebra("full", 2)
    rng = np.random.default_rng(3)
    big_lam, big_alpha = 1e6 * rand_element(rng, alg), rand_kraus(rng, alg, 1e3)
    small_lam = 1e-6 * (rand_element(rng, alg) + 1j * np.eye(2))
    small_alpha = linmap_from_action(alg, lambda b: 1e-6 * b.T)
    assert JacobiParams(alg, (big_lam, 1e-6 * rand_element(rng, alg)), (big_alpha,), big_lam, big_alpha, True)
    with pytest.raises(ValueError, match="self-adjoint lambdas"):
        JacobiParams(alg, (big_lam, small_lam), (big_alpha,), big_lam, big_alpha, positive=True)
    with pytest.raises(ValueError, match="completely positive alphas"):
        JacobiParams(alg, (big_lam,), (big_alpha, small_alpha), big_lam, big_alpha, positive=True)
    assert is_self_adjoint(np.stack([big_lam, big_lam])) and not is_self_adjoint(np.stack([big_lam, small_lam]))


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
