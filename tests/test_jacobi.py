import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree import partitions
from ncfree.algebra import (Algebra, LinMap, algebra_from_json, flip_map, linmap_from_json, matrix_to_json,
                            negligible, unit_matrix)
from ncfree.jacobi import (
    DegreeCapError,
    JacobiParams,
    SingularResolventError,
    arcsine,
    bernoulli,
    boolean_power,
    cf_approximant,
    cf_series,
    fock_moment,
    free_binomial,
    free_binomial_moment,
    free_binomial_word_moment,
    free_poisson,
    make_named,
    meixner,
    meixner_convolve,
    meixner_recognize,
    moment,
    moment_sequence,
    params_from_json,
    params_to_json,
    phi_transform,
    point_mass,
    poisson_limit_check,
    scalar_jacobi,
    scalar_moments,
    semicircular,
    shift_by_delta,
    strip,
    truncate,
    two_point,
    word_from_json,
    word_to_json,
)
from ncfree.joint import JointModel, colored_word_from_json, free_convolve_word
from ncfree.scalar import moments_to_cumulants
from reference import gram_psd_check, linmap_from_action

rng = np.random.default_rng(3)

ALG1 = Algebra("full", 1)
ONE1 = np.eye(1, dtype=complex)
ALG2 = Algebra("full", 2)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def rand_sa(d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def rand_cp(alg=ALG2, nk=2):
    d = alg.dim
    return LinMap.from_kraus(
        alg, [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(nk)]
    )


def rand_params(positive=True):
    return JacobiParams(
        ALG2,
        (rand_sa(), rand_sa()),
        (rand_cp(),),
        rand_sa(),
        rand_cp(),
        positive=positive,
    )


def rand_coeffs(n, d=2):
    return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n + 1)]


# -- low-degree closed forms -------------------------------------------------


def test_degree_zero_and_one():
    p = rand_params()
    b0, b1 = rand_coeffs(1)
    assert np.allclose(moment(p, [b0]), b0)
    assert np.allclose(moment(p, [b0, b1]), b0 @ p.lam(1) @ b1)


def test_degree_two_display():
    p = rand_params()
    b0, b1, b2 = rand_coeffs(2)
    expected = b0 @ p.lam(1) @ b1 @ p.lam(1) @ b2 + b0 @ p.alpha(1)(b1) @ b2
    assert np.allclose(moment(p, [b0, b1, b2]), expected)


def test_degree_three_display():
    p = rand_params()
    one = ALG2.unit()
    l1, a1, l2 = p.lam(1), p.alpha(1), p.lam(2)
    # NC_{1,2}(3): three singletons, and the three pairings each with a singleton
    expected = (
        l1 @ l1 @ l1
        + a1(one) @ l1          # (1,2)(3)
        + a1(l2) @ one          # (1,3) pair over the middle singleton
        + l1 @ a1(one)          # (1)(2,3)
    )
    assert np.allclose(moment(p, [one] * 4), expected)


# -- Fock oracle --------------------------------------------------------------


def test_fock_matches_partition_sum():
    for _ in range(10):
        p = rand_params()
        n = int(rng.integers(0, 7))
        cs = rand_coeffs(n)
        assert np.allclose(moment(p, cs), fock_moment(p, cs), atol=1e-9)


def test_fock_scalar_point_mass():
    p = point_mass(ALG1, 1.5 * ONE1)
    for n in range(7):
        assert np.isclose(fock_moment(p, [ONE1] * (n + 1))[0, 0], 1.5**n)


# -- stripping, Jacobi-sum identity, continued fraction ----------------------


def test_strip_shifts_parameters():
    p = rand_params()
    s = strip(p)
    for i in range(1, 6):
        assert np.allclose(s.lam(i), p.lam(i + 1))
        assert s.alpha(i).isclose(p.alpha(i + 1))


def test_jacobi_sum_first_block_decomposition():
    # condition on the block of position 1: a singleton inserts lambda_1, a
    # pair (1,q) applies alpha_1 to the stripped moment of the inside
    p = rand_params()
    ps = strip(p)
    for n in range(1, 7):
        cs = rand_coeffs(n)
        total = moment(p, [cs[0] @ p.lam(1) @ cs[1]] + cs[2:])
        for q in range(2, n + 1):
            inner = moment(ps, cs[1:q])
            total = total + moment(p, [cs[0] @ p.alpha(1)(inner) @ cs[q]] + cs[q + 1 :])
        if n >= 1:
            # q = n pair leaves an empty outside handled above; compare
            assert np.allclose(moment(p, cs), total, atol=1e-9)


def test_cf_series_matches_moments_through_degree_k():
    for k in range(1, 9):
        p = rand_params()
        b = rand_sa()
        ser = cf_series(p, k, b, k)
        ms = moment_sequence(p, b, k)
        for i in range(k + 1):
            assert np.allclose(ser[i], ms[i], atol=1e-9), (k, i)


def test_cf_series_exact_for_truncated_params():
    p = truncate(rand_params(), 3)
    b = rand_sa()
    ser = cf_series(p, 3, b, 8)
    ms = moment_sequence(p, b, 8)
    for i in range(9):
        assert np.allclose(ser[i], ms[i], atol=1e-8)


def test_cf_series_degree_zero_is_the_unit():
    for k in (1, 3):
        ser = cf_series(rand_params(), k, rand_sa(), 0)
        assert len(ser) == 1
        assert np.array_equal(ser[0], np.eye(2))


@pytest.mark.parametrize("k, degree", [(1, -1), (0, 3), (-1, 3), (0, 0)])
def test_cf_series_rejects_bad_depth_or_degree(k, degree):
    with pytest.raises(ValueError):
        cf_series(scalar_jacobi(tail_alpha=1.0), k, ONE1, degree)


def test_cf_numeric_cauchy_in_k():
    p = rand_params()
    b = 0.05 * rand_sa()
    vals = [cf_approximant(p, k, b) for k in range(1, 9)]
    diffs = [np.max(np.abs(vals[i + 1] - vals[i])) for i in range(len(vals) - 1)]
    nonzero = [d for d in diffs if d > 1e-16]
    for a, c in zip(nonzero, nonzero[1:]):
        assert c <= 0.25 * a


def test_cf_singular_resolvent_names_its_level():
    # alpha = b = 1 with lambda = 0: the level-1 resolvent is 1 - b^2 = 0
    with pytest.raises(SingularResolventError) as exc:
        cf_approximant(scalar_jacobi(tail_alpha=1.0), 1, [[1]])
    assert exc.value.level == 1


def test_cf_semicircular_catalan():
    sc = scalar_jacobi(tail_alpha=1.0)
    ser = cf_series(sc, 8, ONE1, 14)
    for n in range(8):
        assert np.isclose(ser[2 * n][0, 0].real, CATALAN[n]) or 2 * n > 8
    ms = scalar_moments(sc, 14)
    assert np.allclose([ms[2 * n].real for n in range(8)], CATALAN[:8])


CF_ALGEBRAS = [ALG1, ALG2, Algebra("full", 3), Algebra("diagonal", 2), Algebra("diagonal", 3)]


def cf_law(rng, alg, algebraic):
    """A law with heads of 0-2 lambdas and alphas, and an element maker: self-adjoint lambdas and Kraus alphas, or
    lambdas that are not self-adjoint and alphas from random dense matrices, kept to the diagonal positions on D_d."""
    d = alg.dim
    keep = np.eye(d, dtype=bool).reshape(-1) | (alg.kind == "full")

    def element():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return np.diag(np.diag(a)) if alg.kind == "diagonal" else a

    def lam():
        a = element()
        return a if algebraic else a + a.conj().T

    def alpha():
        if not algebraic:
            return LinMap.from_kraus(alg, [element() for _ in range(2)])
        dense = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        return LinMap.from_dense(alg, np.where(np.outer(keep, keep), dense, 0))

    n_lam, n_alpha = rng.integers(0, 3, size=2)
    law = JacobiParams(alg, tuple(lam() for _ in range(n_lam)), tuple(alpha() for _ in range(n_alpha)), lam(), alpha())
    return law, element


def assert_coefficientwise_close(got, want):
    """Each coefficient within 1e-12 of the largest entry of its own reference."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), i


@pytest.mark.parametrize("algebraic", [False, True], ids=["positive", "algebraic"])
@pytest.mark.parametrize("alg", CF_ALGEBRAS, ids=lambda a: f"{a.kind}{a.dim}")
def test_cf_series_at_depth_n_over_2_plus_1_is_the_moment_sequence(alg, algebraic):
    # depth n//2 + 1 reaches every lambda and alpha a degree-n moment draws, so the expansion is exact through n
    rng = np.random.default_rng([CF_ALGEBRAS.index(alg), algebraic])
    for n in (8, *rng.integers(0, 8, size=2)):
        p, element = cf_law(rng, alg, algebraic)
        b = element()
        assert_coefficientwise_close(cf_series(p, n // 2 + 1, b, n), moment_sequence(p, b, n))


def test_cf_series_never_raises_at_an_ill_conditioned_shift_point(monkeypatch):
    # at S (x) b with b = 100 b' a whole level matrix has cond * eps far above 1, but its diagonal blocks are exactly
    # 1: no level raises, and every coefficient keeps its own relative accuracy
    p, b, conds = rand_params(), 100 * rand_sa(), []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: conds.append(np.linalg.cond(a)) or inv(a))
    series = cf_series(p, 5, b, 8)
    monkeypatch.undo()
    assert len(conds) == 5 and max(conds) * np.finfo(float).eps >= 1
    assert_coefficientwise_close(series, moment_sequence(p, b, 8))


# -- named families ----------------------------------------------------------


def test_point_mass_moments():
    lam = rand_sa()
    p = point_mass(ALG2, lam)
    b = rand_coeffs(3)
    expected = b[0] @ lam @ b[1] @ lam @ b[2] @ lam @ b[3]
    assert np.allclose(moment(p, b), expected)


def test_two_point_matches_mixture():
    t, a, c = 0.3, 1.7, -0.4
    p = two_point(ALG1, t, a * ONE1, c * ONE1)
    for n in range(9):
        assert np.isclose(
            scalar_moments(p, n)[-1].real, t * a**n + (1 - t) * c**n
        )


def test_two_point_requires_interior_t():
    with pytest.raises(ValueError):
        two_point(ALG1, 0.0, ONE1, -ONE1)


def test_arcsine_central_binomials():
    p = arcsine(ALG1, LinMap.from_dense(ALG1, ONE1))
    ms = scalar_moments(p, 8)
    assert np.allclose([m.real for m in ms], [1, 0, 2, 0, 6, 0, 20, 0, 70])


def test_semicircular_catalan():
    ms = scalar_moments(scalar_jacobi(tail_alpha=1.0), 10)
    assert np.allclose([ms[2 * n].real for n in range(6)], CATALAN[:6])


def test_make_named_dispatch():
    p = make_named("semicircular", ALG1, alpha=LinMap.from_dense(ALG1, ONE1))
    assert np.isclose(scalar_moments(p, 2)[-1].real, 1.0)
    with pytest.raises(ValueError):
        make_named("nonsense", ALG1)


def test_bernoulli_is_canonical_meixner():
    # J(0, lam, lam, ...; a, 0, 0, ...) = fM(lam, -a; a)
    lam, a = 0.7 * ONE1, LinMap.from_dense(ALG1, 0.5 * ONE1)
    m = meixner(ALG1, lam, a.scale(-1), a)
    direct = JacobiParams(ALG1, (ALG1.zero(), lam), (a,), lam, LinMap.zero(ALG1))
    assert m.isclose(direct)


# -- transforms ---------------------------------------------------------------


def test_shift_by_delta_equals_mean_shift():
    p = scalar_jacobi(tail_alpha=1.0)
    sh = shift_by_delta(p, 0.6 * ONE1)
    # the shifted variable is X + 0.6: binomially mixed moments
    base = scalar_moments(p, 6)
    shifted = scalar_moments(sh, 6)
    from math import comb

    for n in range(7):
        mix = sum(comb(n, j) * 0.6 ** (n - j) * base[j].real for j in range(n + 1))
        assert np.isclose(shifted[n].real, mix)


def test_phi_transform_prepends():
    p = rand_params()
    q = phi_transform(p)
    assert np.allclose(q.lam(1), 0)
    assert q.alpha(1).isclose(LinMap.identity(ALG2))
    for i in range(1, 5):
        assert np.allclose(q.lam(i + 1), p.lam(i))
        assert q.alpha(i + 1).isclose(p.alpha(i))


def test_boolean_power_of_bernoulli():
    # eta = s * id on the fair Bernoulli scales only the first alpha
    bern = two_point(ALG1, 0.5, ONE1, -ONE1)
    bp = boolean_power(bern, LinMap.from_dense(ALG1, 2.0 * ONE1))
    ms = scalar_moments(bp, 6)
    assert np.allclose([m.real for m in ms], [1, 0, 2, 0, 4, 0, 8])


def test_boolean_power_touches_only_first_pair():
    p = rand_params()
    eta = rand_cp()
    q = boolean_power(p, eta)
    assert np.allclose(q.lam(1), eta(p.lam(1)))
    assert q.alpha(1).isclose(eta.compose(p.alpha(1)))
    for i in range(2, 5):
        assert np.allclose(q.lam(i), p.lam(i))
        assert q.alpha(i).isclose(p.alpha(i))


def test_params_built_from_lists_transform_like_tuples():
    p = rand_params()
    listed = JacobiParams(ALG2, list(p.head_lambda), list(p.head_alpha), p.tail_lambda, p.tail_alpha, p.positive)
    eta = rand_cp()
    for transform in (phi_transform, strip, lambda q: boolean_power(q, eta)):
        assert transform(listed).isclose(transform(p))


# -- paper laws as properties, over both algebra kinds --------------------------


def law_inputs(seed, kind, d):
    """Random elements of B and maps preserving it (diagonal Kraus operators on D_d)."""
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)

    def element():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return np.diag(np.diag(a)) if kind == "diagonal" else a

    return alg, element, lambda: LinMap.from_kraus(alg, [element() for _ in range(2)])


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(1, 3),
    heads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_strip_undoes_phi_transform(kind, d, heads, seed):
    alg, element, cp_map = law_inputs(seed, kind, d)
    p = JacobiParams(alg, tuple(element() for _ in range(heads[0])), tuple(cp_map() for _ in range(heads[1])),
                     element(), cp_map())
    assert strip(phi_transform(p)).isclose(p)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(1, 3),
    n=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_meixner_semigroup_on_words(kind, d, n, seed):
    # fM(lam, alpha; eta1) boxplus fM(lam, alpha; eta2) = fM(lam, alpha; eta1 + eta2), word by word
    alg, element, cp_map = law_inputs(seed, kind, d)
    lam, alpha = element(), cp_map()
    p1, p2 = meixner(alg, lam, alpha, cp_map()), meixner(alg, lam, alpha, cp_map())
    coeffs = [element() for _ in range(n + 1)]
    got = free_convolve_word(JointModel(p1, p2), coeffs)
    want = moment(meixner_convolve(p1, p2), coeffs)
    assert negligible(got - want, got, want)


def boolean_cumulants(p, c):
    """beta_n(c_1, ..., c_{n-1}) for n = 1..len(c) + 1, from the interval recursion
    mu_n(c_1..c_{n-1}) = sum_j beta_j(c_1..c_{j-1}) c_j mu_{n-j}(c_{j+1}..c_{n-1}), the j = n term being beta_n;
    also every moment the recursion reads."""
    one = p.algebra.unit()

    def mu(lo, hi):  # mu[X c_{lo+1} X ... c_hi X], with hi - lo + 1 letters
        return moment(p, [one, *c[lo:hi], one])

    beta, moments = [], []
    for n in range(1, len(c) + 2):
        terms = [mu(0, n - 1)] + [beta[j - 1] @ c[j - 1] @ mu(j, n - 1) for j in range(1, n)]
        beta.append(terms[0] - sum(terms[1:]))
        moments += terms
    return beta, moments


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(1, 2),
    heads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_boolean_power_applies_eta_to_boolean_cumulants(kind, d, heads, seed):
    # the Boolean cumulants of boolean_power(p, eta) are eta of those of p, through degree 5
    alg, element, cp_map = law_inputs(seed, kind, d)
    p = JacobiParams(alg, tuple(element() for _ in range(heads[0])), tuple(cp_map() for _ in range(heads[1])),
                     element(), cp_map())
    eta, c = cp_map(), [element() for _ in range(4)]
    beta_p, moments_p = boolean_cumulants(p, c)
    beta_q, moments_q = boolean_cumulants(boolean_power(p, eta), c)
    want = eta(np.array(beta_p))
    assert negligible(np.array(beta_q) - want, *moments_q, eta(np.array(moments_p)))


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(1, 2),
    heads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    n=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_shift_by_delta_is_free_convolution_with_a_point_mass(kind, d, heads, n, seed):
    alg, element, cp_map = law_inputs(seed, kind, d)
    p = JacobiParams(alg, tuple(element() for _ in range(heads[0])), tuple(cp_map() for _ in range(heads[1])),
                     element(), cp_map())
    shift, coeffs = element(), [element() for _ in range(n + 1)]
    got = moment(shift_by_delta(p, shift), coeffs)
    want = free_convolve_word(JointModel(p, point_mass(alg, shift)), coeffs)
    assert negligible(got - want, got, want)


# -- Meixner family -----------------------------------------------------------


def test_meixner_recognize_roundtrip():
    lam = rand_sa()
    alpha, eta = rand_cp(), rand_cp()
    got = meixner_recognize(meixner(ALG2, lam, alpha, eta))
    assert got is not None
    lam2, alpha2, eta2 = got
    assert np.allclose(lam2, lam) and alpha2.isclose(alpha) and eta2.isclose(eta)
    assert meixner_recognize(rand_params()) is None


def test_meixner_semigroup_parameters():
    lam = rand_sa()
    alpha, e1, e2 = rand_cp(), rand_cp(), rand_cp()
    conv = meixner_convolve(meixner(ALG2, lam, alpha, e1), meixner(ALG2, lam, alpha, e2))
    rec = meixner_recognize(conv)
    assert rec is not None and rec[2].isclose(e1 + e2)


def test_meixner_convolve_rejects_mismatch():
    lam = rand_sa()
    with pytest.raises(ValueError):
        meixner_convolve(
            meixner(ALG2, lam, rand_cp(), rand_cp()),
            meixner(ALG2, rand_sa(), rand_cp(), rand_cp()),
        )


def test_meixner_quadratic_r_relation():
    # fM(lam, alpha; 1) with dyadic scalars: R = z^2 + lam*z*R + alpha*R^2
    for lam, alpha in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(2), Fraction(1))):
        p = scalar_jacobi(
            head_lambda=(0.0,),
            head_alpha=(1.0,),
            tail_lambda=float(lam),
            tail_alpha=float(1 + alpha),
        )
        ms = [Fraction(m.real) for m in scalar_moments(p, 9)]
        kappa = moments_to_cumulants(ms)
        R = [Fraction(0)] + kappa  # R(z) = sum kappa_n z^n
        for n in range(1, 9):
            r2 = sum(R[j] * R[n - j] for j in range(n + 1))
            rhs = (Fraction(1) if n == 2 else Fraction(0)) + lam * R[n - 1] + alpha * r2
            assert R[n] == rhs, (lam, alpha, n)


# -- free binomial and Poisson limit ------------------------------------------


def test_free_binomial_moment_values():
    assert [free_binomial_moment(n, 2) for n in range(5)] == [1, 2, 6, 20, 70]
    assert free_binomial_moment(3, Fraction(3, 2)) == free_binomial_moment(3, Fraction(3, 2))
    with pytest.raises(ValueError):
        free_binomial_moment(2, Fraction(1, 2))


def test_free_binomial_family_moments():
    t = Fraction(7, 2)
    p = free_binomial(
        ALG1, LinMap.from_dense(ALG1, float(t) * ONE1), LinMap.from_dense(ALG1, ONE1)
    )
    ms = scalar_moments(p, 10)
    for n in range(6):
        assert np.isclose(ms[2 * n].real, float(free_binomial_moment(n, t)))


def test_free_binomial_word_moment():
    # the 2x2 model: a = e12 + e21, B = diagonal, E = diagonal projection
    algd = Algebra("diagonal", 2)
    a = unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)
    expectation = lambda m: np.diag(np.diag(m))
    b = [np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 1.0]).astype(complex), np.eye(2, dtype=complex)]
    val = free_binomial_word_moment(a, b, 2.0, expectation, algd)
    word = b[0] @ a @ b[1] @ a @ b[2]
    assert np.allclose(val, 2.0 * word)  # m_1(2) = 2
    odd = free_binomial_word_moment(a, b[:2], 2.0, expectation, algd)
    assert np.allclose(odd, 0)


def test_free_binomial_word_moment_preconditions():
    algd = Algebra("diagonal", 2)
    expectation = lambda m: np.diag(np.diag(m))
    with pytest.raises(ValueError):
        free_binomial_word_moment(np.eye(2, dtype=complex), [np.eye(2)] * 3, 2.0, expectation, algd)


def test_poisson_limit_linear_decay():
    e = {}
    for n_steps in (10, 100):
        approx, target = poisson_limit_check(n_steps, 0.5, 1.0, 1.5, degree=4)
        e[n_steps] = max(abs(a - t) for a, t in zip(approx, target))
    assert 5 <= e[10] / e[100] <= 20


def test_free_poisson_is_shifted_centered_family():
    lam, alpha = 0.8 * ONE1, LinMap.from_dense(ALG1, 1.1 * ONE1)
    centered = free_poisson(ALG1, lam, alpha)
    shifted = free_poisson(ALG1, lam, alpha, mean=0.3 * ONE1)
    assert shifted.isclose(shift_by_delta(centered, 0.3 * ONE1))


# -- positivity and bounds ----------------------------------------------------


def test_positive_flag_validation():
    with pytest.raises(ValueError):
        JacobiParams(
            ALG2,
            (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),),
            (),
            ALG2.zero(),
            LinMap.zero(ALG2),
            positive=True,
        )
    transpose = linmap_from_action(ALG2, lambda b: b.T)
    with pytest.raises(ValueError):
        JacobiParams(ALG2, (), (transpose,), ALG2.zero(), transpose, positive=True)


@pytest.mark.parametrize("positive", ["false", "true", 0, 1, None])
def test_params_reject_non_boolean_positive(positive):
    with pytest.raises(ValueError, match="positive must be true or false"):
        JacobiParams(ALG1, (), (), ONE1, LinMap.from_dense(ALG1, ONE1), positive=positive)


def test_gram_positivity_of_moments():
    p = rand_params(positive=True)
    units = [unit_matrix(2, i, j) for i in range(2) for j in range(2)]
    monomials = [(deg, u) for deg in range(4) for u in units]
    grid = [
        [
            moment(p, [ui.conj().T] + [ALG2.unit()] * (di + dj - 1) + [uj])
            if di + dj > 0
            else ui.conj().T @ uj
            for (dj, uj) in monomials
        ]
        for (di, ui) in monomials
    ]
    assert gram_psd_check(grid)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    degrees=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gram_positivity_of_random_words(kind, degrees, seed):
    # words w_i = b_0 X b_1 ... X b_k with random coefficients: [mu(w_i* w_j)] is PSD for a positive law
    r = np.random.default_rng(seed)
    alg = Algebra(kind, 2)

    def element():
        a = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
        return np.diag(np.diag(a)) if kind == "diagonal" else a

    def lam():
        a = element()
        return a + a.conj().T

    def alpha():
        if kind == "diagonal":  # diagonal Kraus operators and a flipped one keep D_2
            return LinMap.from_kraus(alg, [np.diag(r.normal(size=2)), np.diag(r.normal(size=2))[::-1]])
        return LinMap.from_kraus(alg, [element(), element()])

    p = JacobiParams(alg, (lam(), lam()), (alpha(), alpha()), lam(), alpha(), positive=True)
    words = [[element() for _ in range(k + 1)] for k in degrees]
    grid = [
        [moment(p, [b.conj().T for b in wi[:0:-1]] + [wi[0].conj().T @ wj[0]] + wj[1:]) for wj in words]
        for wi in words
    ]
    assert gram_psd_check(grid)


def test_exponential_bound():
    # scale so that M = max(||lam_i||, ||alpha_i||) >= 1, then
    # ||moment|| <= (4M)^n prod ||b_j||
    p = rand_params()
    norms = [np.linalg.norm(p.lam(i), 2) for i in range(1, 4)] + [
        p.alpha(i).norm() for i in range(1, 4)
    ]
    m_const = max(norms)
    assert m_const >= 1  # random self-adjoint 2x2 sums essentially always exceed 1
    for n in range(1, 7):
        cs = rand_coeffs(n)
        bound = (4 * m_const) ** n * np.prod([np.linalg.norm(c, 2) for c in cs])
        assert np.linalg.norm(moment(p, cs), 2) <= bound


# -- plumbing ------------------------------------------------------------------


def test_degree_cap_env(monkeypatch):
    p = scalar_jacobi(tail_alpha=1.0)
    with pytest.raises(DegreeCapError, match="degree 17 exceeds cap 16"):
        moment(p, [ONE1] * 18)
    monkeypatch.setattr(partitions, "DEGREE_CAP", 3)
    with pytest.raises(DegreeCapError):
        moment(p, [ONE1] * 5)
    assert np.isclose(moment(p, [ONE1] * 4)[0, 0].real, 0.0)


ALGD = Algebra("diagonal", 2)
OFF_DIAGONAL = unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)


def test_params_reject_lambda_outside_algebra():
    with pytest.raises(ValueError, match="lambda"):
        JacobiParams(ALGD, (OFF_DIAGONAL,), (), ALGD.zero(), LinMap.zero(ALGD), positive=True)


def test_params_reject_alpha_leaving_algebra():
    # b -> A b A* with A = [[1, 1], [0, 1]] sends e_22 to a full matrix
    mixing = LinMap.from_kraus(ALGD, [np.array([[1, 1], [0, 1]])])
    with pytest.raises(ValueError, match="alpha"):
        JacobiParams(ALGD, (), (mixing,), ALGD.zero(), LinMap.zero(ALGD))


@pytest.mark.parametrize(
    "b, match",
    [(np.ones((2, 2)), "live in the algebra"), (np.eye(3), "live in the algebra"), (np.array([np.eye(2)] * 2), "batch")],
    ids=["outside_B", "wrong_shape", "batch"],
)
@pytest.mark.parametrize(
    "expand",
    [lambda p, b: cf_series(p, 2, b, 4), lambda p, b: cf_approximant(p, 2, b)],
    ids=["cf_series", "cf_approximant"],
)
def test_continued_fractions_reject_a_point_outside_the_algebra(expand, b, match):
    with pytest.raises(ValueError, match=match):
        expand(semicircular(ALGD, flip_map()), b)


SEMI2 = semicircular(ALG2, LinMap.identity(ALG2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: shift_by_delta(SEMI2, 1.0),
        lambda: shift_by_delta(SEMI2, [1, 2]),
        lambda: shift_by_delta(SEMI2, np.array([np.eye(2)] * 2)),
        lambda: free_poisson(ALG2, np.eye(2), LinMap.identity(ALG2), mean=1.0),
        lambda: two_point(ALG2, 0.5, np.diag([1.0, -1.0]), 1.0),
        lambda: two_point(ALG2, 0.5, [1, 2], np.eye(2)),
        lambda: point_mass(ALG2, 1.0),
        lambda: point_mass(ALGD, OFF_DIAGONAL),
    ],
    ids=["shift_scalar", "shift_row", "shift_batch", "free_poisson_mean", "two_point_c", "two_point_a", "point_mass",
         "point_mass_outside_B"],
)
def test_a_lone_element_that_is_no_element_of_the_algebra_is_refused(make):
    # a scalar or a row would broadcast into every lambda: 1.0 would read as the all-ones matrix
    with pytest.raises(ValueError, match="one 2 x 2 matrix, without a batch axis, and live in the algebra"):
        make()


def test_shift_by_delta_judges_the_shift_against_itself():
    # lambda + shift is self-adjoint against lambda's 1e9; the shift alone is not, and a positive law refuses it
    p = JacobiParams(ALG2, (), (), 1e9 * np.eye(2), LinMap.identity(ALG2), positive=True)
    with pytest.raises(ValueError, match="shift must be self-adjoint"):
        shift_by_delta(p, unit_matrix(2, 0, 1))
    assert shift_by_delta(p, np.diag([1, 2])).positive


def test_a_law_stores_its_lambdas_as_complex_arrays():
    alpha, lams = LinMap.identity(ALG2), [[[1, 2], [2, 0]], [[0, 1], [1, 3]], [[2, 0], [0, -1]]]
    from_complex = JacobiParams(ALG2, tuple(np.array(l, dtype=complex) for l in lams[:2]), (alpha,),
                                np.array(lams[2], dtype=complex), alpha)
    from_ints = JacobiParams(ALG2, tuple(np.array(l) for l in lams[:2]), (alpha,), np.array(lams[2]), alpha)
    from_lists = JacobiParams(ALG2, lams[:2], (alpha,), lams[2], alpha)
    local = np.random.default_rng(35)  # the module's stream stays as the other tests draw it
    word = [local.normal(size=(2, 2)) + 1j * local.normal(size=(2, 2)) for _ in range(7)]
    want = moment(from_complex, word).tobytes()
    named = semicircular(ALG2, alpha, lams[2]), meixner(ALG2, np.array(lams[2]), alpha, alpha)
    for p in (from_ints, from_lists, *named):
        assert all(type(l) is np.ndarray and l.dtype == complex and l.shape == (2, 2)
                   for l in (*p.head_lambda, p.tail_lambda))
    assert moment(from_ints, word).tobytes() == want and moment(from_lists, word).tobytes() == want


def test_params_reject_lambdas_that_are_not_numbers():
    with pytest.raises(ValueError, match="lambda entries must live in the algebra"):
        JacobiParams(ALG2, (), (), [["a", "b"], ["c", "d"]], LinMap.identity(ALG2))


def test_free_binomial_word_moment_rejects_coefficients_outside_the_algebra():
    expectation = lambda m: np.diag(np.diag(m))
    with pytest.raises(ValueError, match="live in the algebra"):
        free_binomial_word_moment(OFF_DIAGONAL, [np.eye(2), np.ones((2, 2)), np.eye(2)], 2.0, expectation, ALGD)


def test_word_from_json_rejects_coefficient_outside_algebra():
    obj = json.loads(json.dumps(word_to_json(ALGD, [np.eye(2), OFF_DIAGONAL])))
    with pytest.raises(ValueError, match="algebra"):
        word_from_json(obj)


def test_params_json_roundtrip():
    p = rand_params()
    q = params_from_json(json.loads(json.dumps(params_to_json(p))))
    assert q.isclose(p)
    assert q.positive == p.positive


def test_params_json_writes_dense_and_loads_positive_kraus_maps():
    kraus = [[rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)] for _ in range(2)]
    head, tail = (LinMap.from_kraus(ALG2, ks) for ks in kraus)
    p = JacobiParams(ALG2, (rand_sa(),), (head,), rand_sa(), tail, positive=True)
    obj = json.loads(json.dumps(params_to_json(p)))
    assert [list(a) for a in (*obj["head_alpha"], obj["tail_alpha"])] == [["dense"], ["dense"]]
    obj["head_alpha"], obj["tail_alpha"] = (
        [{"kraus": [matrix_to_json(a) for a in kraus[0]]}],
        {"kraus": [matrix_to_json(a) for a in kraus[1]]},
    )
    q = params_from_json(json.loads(json.dumps(obj)))
    assert q.positive is True and q.isclose(p)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
def test_params_json_positive_must_be_boolean(value):
    obj = json.loads(json.dumps(params_to_json(rand_params(positive=False))))
    obj["positive"] = value
    with pytest.raises(ValueError, match="positive"):
        params_from_json(obj)


def test_params_json_positive_defaults_to_false():
    obj = json.loads(json.dumps(params_to_json(rand_params(positive=True))))
    assert params_from_json(obj).positive is True
    del obj["positive"]
    assert params_from_json(obj).positive is False


@pytest.mark.parametrize(
    "load, obj",
    [
        (params_from_json, []),
        (word_from_json, {"algebra": {"kind": "full", "dim": 1}, "coeffs": 5}),
        (colored_word_from_json, "word"),
        (algebra_from_json, [2]),
        (lambda obj: linmap_from_json(ALG1, obj), 5),
    ],
    ids=["params", "word", "colored_word", "algebra", "linmap"],
)
def test_json_loaders_reject_values_of_the_wrong_type(load, obj):
    with pytest.raises(ValueError, match="wrong type"):
        load(obj)
