import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree.algebra import negligible
from ncfree.jacobi import moment_sequence, scalar_jacobi, scalar_moments
from ncfree.joint import params_moment_table
from ncfree.partitions import count_family
from ncfree.scalar import (
    AtomicMeasure,
    catalan,
    chebyshev_ratio_moments,
    chebyshev_u,
    chebyshev_u_coeffs,
    cumulants_to_moments,
    free_binomial_closed,
    free_binomial_enumeration,
    free_binomial_series,
    free_convolve_scalar,
    moments_to_cumulants,
    nu_k,
    nu_moments,
    subordination_check,
    subordination_residual,
    table_to_tsv,
    tcnc_limit_row,
    tcnc_recursion,
    tcnc_table,
    tridiagonal_moment,
)
from reference import g_recursion_check

# Even moments of nu_k boxplus nu_k through degree 12, rows k = 2..6.
# Each row is reproduced by the recursion, by the colored-partition count,
# and (for k = 2, 5) by direct scalar free convolution below.
CONV_TABLE = {
    2: [2, 6, 20, 70, 252, 924],
    3: [2, 8, 38, 196, 1062, 5948],
    4: [2, 8, 40, 222, 1308, 8014],
    5: [2, 8, 40, 224, 1342, 8404],
    6: [2, 8, 40, 224, 1344, 8446],
}


def test_chebyshev_coeffs():
    assert chebyshev_u_coeffs(0) == [1]
    assert chebyshev_u_coeffs(1) == [0, 1]
    assert chebyshev_u_coeffs(2) == [-1, 0, 1]
    assert chebyshev_u_coeffs(3) == [0, -2, 0, 1]
    z = 1.7 + 0.3j
    assert np.isclose(chebyshev_u(3, z), z**3 - 2 * z)


def test_nu_k_is_a_probability_measure():
    for k in range(1, 7):
        m = nu_k(k)
        assert np.isclose(sum(m.weights), 1.0)
        assert all(w > -1e-12 for w in m.weights)
        assert np.isclose(m.moment(0), 1.0)
        assert abs(m.moment(1)) < 1e-12


def test_nu_k_four_ways():
    # atomic quadrature, exact tridiagonal powers, Chebyshev series ratio,
    # and the colored pair-partition count must agree
    for k in range(2, 7):
        measure = nu_k(k)
        for n in range(0, 13, 2):
            trid = tridiagonal_moment(k, n)
            assert np.isclose(measure.moment(n), trid, atol=1e-9)
            assert chebyshev_ratio_moments(k, 12)[n] == trid
            assert count_family("NC2^k", n, k=k) == trid
        assert nu_moments(k, 10) == [tridiagonal_moment(k, n) for n in range(11)]


def test_nu_moments_walk_only_the_levels_a_closed_walk_reaches():
    # a closed walk of 12 steps stays in levels 0..6, so nu_7 and nu_100000 agree through degree 12
    tracemalloc.start()
    try:
        assert nu_moments(10**5, 12) == nu_moments(7, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20  # a column of 10^5 levels alone would take 0.8 MB


def test_tridiagonal_examples():
    assert [tridiagonal_moment(2, n) for n in (2, 4, 6)] == [1, 1, 1]  # Bernoulli
    assert [tridiagonal_moment(3, n) for n in (2, 4, 6)] == [1, 2, 4]
    assert tridiagonal_moment(3, 4) == 2
    assert [tridiagonal_moment(5, 2 * j) for j in range(7)] == [1, 1, 2, 5, 14, 41, 122]
    assert all(tridiagonal_moment(k, n) == 0 for k in (2, 3, 4) for n in (1, 3, 5))


def test_nu1_is_point_mass_at_zero():
    m = nu_k(1)
    assert all(abs(m.moment(n)) < 1e-12 for n in range(1, 9))


def test_cauchy_transform_near_atom_raises():
    m = nu_k(2)
    with pytest.raises(ValueError):
        m.cauchy(m.atoms[0] + 1e-9)
    val = m.cauchy(3.0)
    direct = sum(w / (3.0 - a) for a, w in zip(m.atoms, m.weights))
    assert np.isclose(val, direct)


# -- cumulants ------------------------------------------------------------------


def test_cumulant_examples():
    # semicircle: kappa_2 = 1 only
    assert moments_to_cumulants([1, 0, 1, 0, 2, 0, 5]) == [0, 1, 0, 0, 0, 0]
    # arcsine(+-1): kappa_{2n} alternate as Catalan-signed
    ks = moments_to_cumulants([1, 0, 1, 0, 1, 0, 1])
    assert ks[1] == 1 and ks[3] == -1 and ks[5] == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=1,
        max_size=8,
    )
)
def test_cumulant_roundtrip(ms):
    moments = [Fraction(1)] + ms
    kappa = moments_to_cumulants(moments)
    assert len(kappa) == len(ms)
    assert cumulants_to_moments(kappa) == moments


def old_cumulants_to_moments(kappa):
    """The former transform, which rebuilt every power of M anew at each degree."""
    m = [kappa[0] * 0 + 1]
    for n in range(1, len(kappa) + 1):
        acc = m[0] * 0
        for s in range(1, n + 1):
            pw = [1] + [0] * (n - s)
            for _ in range(s):
                pw = [sum(pw[j] * m[d - j] for j in range(d + 1)) for d in range(n - s + 1)]
            acc = acc + kappa[s - 1] * pw[n - s]
        m.append(acc)
    return m


def test_cumulant_roundtrip_to_degree_60():
    m = nu_moments(5, 60)
    assert cumulants_to_moments(moments_to_cumulants(m)) == m


def test_cumulants_to_moments_matches_former_loop_on_complex_input():
    gen = np.random.default_rng(11)
    for n in (1, 2, 5, 9, 14):
        kappa = [complex(a, b) for a, b in gen.normal(size=(n, 2))]
        got, want = cumulants_to_moments(kappa), old_cumulants_to_moments(kappa)
        assert len(got) == n + 1
        assert negligible(np.subtract(got, want), got, want)


def test_free_convolution_reproduces_table_rows():
    for k in (2, 5):
        m = nu_moments(k, 12)
        conv = free_convolve_scalar(m, m, 12)
        assert [conv[2 * n] for n in range(1, 7)] == CONV_TABLE[k]
        assert all(conv[2 * n - 1] == 0 for n in range(1, 7))


def test_convolve_with_delta_is_identity():
    m = nu_moments(3, 10)
    delta = [1] + [0] * 10
    assert free_convolve_scalar(m, delta, 10) == list(m)


def test_g_recursion_residuals():
    assert g_recursion_check(2, 2j) < 1e-10
    assert g_recursion_check(6, 1 + 1j) < 1e-8
    assert g_recursion_check(2, 3.0) < 1e-10


def test_subordination_residuals():
    # F_{nu_n boxplus nu_n}(z + G_{nu_{n-1}}(z)) = z - G_{nu_{n-1}}(z) exactly, as series in 1/z
    assert all(subordination_check(n) for n in range(2, 9))
    assert all(subordination_check(n, 48) for n in range(2, 5))
    # and the identity fails when nu_n stands in for nu_{n-1}
    for n in range(2, 7):
        m = nu_moments(n, 24)
        assert any(subordination_residual(m, free_convolve_scalar(m, m, 24), 24))


# -- the counting table -----------------------------------------------------------


def test_tcnc_recursion_reproduces_table():
    # TCNC_2^{k,k}(2n) both by recursion and by colored enumeration
    for k, row in CONV_TABLE.items():
        rec = tcnc_recursion(k, 6)
        assert rec == row
        for n2 in (2, 4, 6, 8):
            assert count_family("TCNC2^{k,l}", n2, k=k, l=k) == rec[n2 // 2 - 1]


def reference_trace(k, n_max):
    """S_{n,k} and T_{n,k} with every odd-composition sum enumerated."""
    m = nu_moments(k - 1, 2 * n_max)

    def odd_sum(p, q):  # compositions of p into q odd parts, weighted by m_{part-1}
        parts = range(1, p - q + 2, 2)
        return sum(prod(m[c - 1] for c in comp) for comp in product(parts, repeat=q) if sum(comp) == p)

    vals, log = [], []
    for n in range(1, n_max + 1):
        s = 2 * sum(comb(2 * n - 1, i) * odd_sum(i, 2 * n - i) for i in range(n, 2 * n))
        t = 0
        for j in range(1, n - 1):
            h = n - j
            for p in range(h - 1, 2 * h):
                t += vals[j - 1] * comb(2 * h - 1, p) * (odd_sum(p + 1, 2 * h - p - 1) - odd_sum(p, 2 * h - p))
        vals.append(s - t)
        log.append((n, s, t))
    return vals, log


def test_tcnc_recursion_matches_enumerated_compositions():
    for k in range(2, 9):
        vals, log = reference_trace(k, 8)
        for n_max in range(1, 9):
            assert tcnc_recursion(k, n_max, trace=True) == (vals[:n_max], log[:n_max])


def test_tcnc_recursion_matches_cumulants_to_degree_40():
    for k in range(2, 7):
        m = nu_moments(k, 40)
        conv = free_convolve_scalar(m, m, 40)
        assert tcnc_recursion(k, 20) == [conv[2 * n] for n in range(1, 21)]


def test_tcnc_recursion_trace_m3():
    vals, trace = tcnc_recursion(2, 3, trace=True)
    steps = {n: (s, t) for n, s, t in trace}
    assert steps[3] == (20, 0)
    assert vals[2] == 20 - 0


def test_tcnc_limit_row():
    assert tcnc_limit_row(6) == [2 ** n * catalan(n) for n in range(1, 7)]
    assert tcnc_limit_row(6) == [2, 8, 40, 224, 1344, 8448]


def test_tcnc_table_stabilizes():
    rows = tcnc_table(6, 6)
    labels = [r[0] for r in rows]
    assert labels == ["2", "3", "4", "5", "6", "k>6"]
    table = dict(rows)
    for k, row in CONV_TABLE.items():
        assert table[str(k)] == row
    assert table["k>6"] == tcnc_limit_row(6)


def test_table_to_tsv_format():
    tsv = table_to_tsv(tcnc_table(3, 4))
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == ["k", "n=2", "n=4", "n=6", "n=8"]
    assert lines[1].split("\t") == ["2", "2", "6", "20", "70"]


# -- free binomial ------------------------------------------------------------------


def test_free_binomial_three_ways():
    for t in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        series = free_binomial_series(t, 16)
        for n in range(9):
            closed = free_binomial_closed(n, t)
            assert closed == series[2 * n]
            assert closed == free_binomial_enumeration(n, t)
        assert all(series[2 * n + 1] == 0 for n in range(8))


def test_free_binomial_t2_central_binomial():
    from math import comb

    for n in range(8):
        assert free_binomial_closed(n, 2) == comb(2 * n, n)


# -- negative orders ----------------------------------------------------------------

UNIT_LAW = scalar_jacobi(tail_alpha=1.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: free_binomial_closed(-1, 2), id="free_binomial_closed"),
        pytest.param(lambda: chebyshev_u(-1, 0.5), id="chebyshev_u"),
        pytest.param(lambda: moment_sequence(UNIT_LAW, np.eye(1), -1), id="moment_sequence"),
        pytest.param(lambda: scalar_moments(UNIT_LAW, -1), id="scalar_moments"),
        pytest.param(lambda: params_moment_table(UNIT_LAW, 3).sequence(np.eye(1), -1), id="MomentTable.sequence"),
        pytest.param(lambda: moments_to_cumulants([]), id="moments_to_cumulants"),
        pytest.param(lambda: cumulants_to_moments([]), id="cumulants_to_moments"),
        pytest.param(lambda: free_convolve_scalar([1, 0, 1], [1, 0, 1], -1), id="free_convolve_scalar"),
        pytest.param(lambda: free_binomial_series(2, -1), id="free_binomial_series"),
    ],
)
def test_negative_order_is_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_free_convolution_at_degree_zero_is_the_unit_mass():
    assert free_convolve_scalar([1, 0, 1], [1, 2], 0) == [1]
