import gc
import json
from itertools import product
from math import comb

import numpy as np
import pytest

from ncfree.algebra import Algebra, LinMap, flip_map, matrix_from_json, negligible
from ncfree.jacobi import (
    JacobiParams,
    bernoulli,
    moment,
    scalar_jacobi,
    semicircular,
    shift_by_delta,
    truncate,
    two_point,
)
from ncfree.joint import (
    ColoredWord,
    JointModel,
    colored_word,
    colored_word_from_json,
    colored_word_to_json,
    e_pi,
    free_convolve_moments,
    free_convolve_word,
    joint_moment,
    joint_moment_free_recursion,
    params_moment_table,
    two_by_two_model_check,
    verify_jacobi_consistency,
)
from ncfree.partitions import (
    BLUE,
    RED,
    ColoredPartition,
    DegreeCapError,
    Partition12,
    count_family,
    enumerate_tcnc,
)
from ncfree.scalar import free_convolve_scalar, nu_moments
from reference import element_color, linmap_from_action

rng = np.random.default_rng(11)

ALG1 = Algebra("full", 1)
ONE1 = np.eye(1, dtype=complex)
ALG2 = Algebra("full", 2)
ALGD = Algebra("diagonal", 2)


def rand_sa(d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def rand_cp(alg=ALG2, nk=2):
    d = alg.dim
    return LinMap.from_kraus(
        alg, [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(nk)]
    )


def rand_params(alg=ALG2):
    if alg.dim == 1:
        return scalar_jacobi(
            head_lambda=tuple(rng.normal(size=2)),
            head_alpha=tuple(rng.normal(size=2) ** 2 + 0.1),
            tail_lambda=float(rng.normal()),
            tail_alpha=float(rng.normal() ** 2 + 0.1),
        )
    if alg.kind == "diagonal":  # diagonal lambdas; the flip Kraus operator mixes the diagonal entries
        def cp():
            return LinMap.from_kraus(alg, [np.diag(rng.normal(size=2)), np.diag(rng.normal(size=2))[::-1]])

        return JacobiParams(alg, (rand_element(alg), rand_element(alg)), (cp(),), rand_element(alg), cp())
    return JacobiParams(alg, (rand_sa(), rand_sa()), (rand_cp(),), rand_sa(), rand_cp())


def rand_element(alg):
    a = rng.normal(size=(alg.dim, alg.dim)) + 1j * rng.normal(size=(alg.dim, alg.dim))
    return np.diag(np.diag(a.real)) if alg.kind == "diagonal" else a + a.conj().T


def scalar_model(p1, p2):
    return JointModel(p1, p2)


def unit_word(model, colors):
    d = model.algebra.dim
    eye = np.eye(d, dtype=complex)
    return colored_word(model.algebra, [eye] * (len(colors) + 1), colors)


# -- basic sanity -------------------------------------------------------------


def test_colored_word_validation():
    with pytest.raises(ValueError):
        colored_word(ALG1, [ONE1], [BLUE])
    with pytest.raises(ValueError):
        colored_word(ALG1, [ONE1, ONE1], ["x"])


def test_fair_bernoulli_colorings():
    # X, Y fair +-1 Bernoulli, free: E[XYXY] = 0 but E[XXYY] = 1
    bern = two_point(ALG1, 0.5, ONE1, -ONE1)
    model = JointModel(bern, bern)
    alt = joint_moment(model, unit_word(model, [BLUE, RED, BLUE, RED]))
    blk = joint_moment(model, unit_word(model, [BLUE, BLUE, RED, RED]))
    assert np.isclose(alt[0, 0].real, 0.0)
    assert np.isclose(blk[0, 0].real, 1.0)


def test_colored_word_rejects_coefficient_outside_algebra():
    algd = Algebra("diagonal", 2)
    off = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="algebra"):
        colored_word(algd, [np.eye(2), off], [BLUE])
    with pytest.raises(ValueError, match="algebra"):
        colored_word(algd, [np.eye(2), np.eye(3), np.eye(2)], [BLUE, RED])


def test_e_pi_interval_and_nested_summands():
    # word b0 X b1 X b2 Y b3 Y b4 with partition summands evaluated directly
    p1, p2 = rand_params(), rand_params()
    model = JointModel(p1, p2)
    cs = [rand_sa() for _ in range(5)]
    colors = (BLUE, BLUE, RED, RED)
    w = colored_word(ALG2, cs, colors)
    # interval pairing (1,2)(3,4): alpha^{(1)}_1 then alpha^{(2)}_1
    interval = ColoredPartition(Partition12(4, ((1, 2), (3, 4))), (BLUE, RED))
    a_val = e_pi(model, w, interval)
    expected_a = cs[0] @ p1.alpha(1)(cs[1]) @ cs[2] @ p2.alpha(1)(cs[3]) @ cs[4]
    assert np.allclose(a_val, expected_a)
    # nested monochromatic pairing on b X b X b Y b Y b ... use blue nested
    colors_b = (BLUE, BLUE, BLUE, BLUE)
    wb = colored_word(ALG2, cs, colors_b)
    nested = ColoredPartition(Partition12(4, ((1, 4), (2, 3))), (BLUE, BLUE))
    c_val = e_pi(model, wb, nested)
    expected_c = cs[0] @ p1.alpha(1)(cs[1] @ p1.alpha(2)(cs[2]) @ cs[3]) @ cs[4]
    assert np.allclose(c_val, expected_c)


def test_e_pi_rejects_color_mismatch():
    model = JointModel(rand_params(), rand_params())
    w = unit_word(model, [BLUE, RED])
    bad = ColoredPartition(Partition12(2, ((1, 2),)), (BLUE,))
    with pytest.raises(ValueError):
        e_pi(model, w, bad)


@pytest.mark.parametrize(
    "partition",
    [ColoredPartition(Partition12(2, ((1, 2),)), (BLUE,)),
     ColoredPartition(Partition12(4, ((1, 2), (3, 4))), (BLUE, RED))],
    ids=["shorter", "longer"],
)
def test_e_pi_rejects_partition_of_other_size(partition):
    # on b0 X b1 X b2 Y b3: a partition of {1, 2} would drop Y b3, one of {1..4} would read past the word
    bern = two_point(ALG1, 0.5, ONE1, -ONE1)
    model = JointModel(bern, bern)
    w = unit_word(model, [BLUE, BLUE, RED])
    with pytest.raises(ValueError, match=f"partition of {partition.base.n} positions on a word of degree 3"):
        e_pi(model, w, partition)


# -- two routes agree ----------------------------------------------------------


def test_partition_sum_matches_freeness_recursion():
    for alg in (ALG1, ALG2):
        model = JointModel(rand_params(alg), rand_params(alg))
        d = alg.dim
        for n in range(1, 6):
            for colors in product((BLUE, RED), repeat=n):
                cs = [
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    for _ in range(n + 1)
                ]
                w = colored_word(alg, cs, colors)
                a = joint_moment(model, w)
                b = joint_moment_free_recursion(model, w)
                assert np.allclose(a, b, atol=1e-9), (alg.dim, colors)
    # degrees 7 and 8, as `joint --oracle` meets them: alternating runs of two, single symbols, one run
    for alg in (ALG2, ALGD):
        model = JointModel(rand_params(alg), rand_params(alg))
        for colors in ("bbrrbbrr", "rrbbrrbb", "brbrbrbr", "rrrrrrr"):
            cs = [rand_element(alg) for _ in range(len(colors) + 1)]
            w = colored_word(alg, cs, colors)
            a = joint_moment(model, w)
            assert negligible(joint_moment_free_recursion(model, w) - a, a), (alg.kind, colors)


def test_free_recursion_caps_the_runs():
    # nine runs are refused before any marginal is computed; eight still match the partition sum
    model = JointModel(rand_params(ALG2), rand_params(ALG2))
    cs = [rand_element(ALG2) for _ in range(10)]
    with pytest.raises(DegreeCapError, match="9 color runs"):
        joint_moment_free_recursion(model, colored_word(ALG2, cs, "brbrbrbrb"))
    w = colored_word(ALG2, cs[:9], "brbrbrbr")
    a = joint_moment(model, w)
    assert negligible(joint_moment_free_recursion(model, w) - a, a)


def test_free_recursion_keeps_nearby_words_apart():
    # sub-words whose coefficients differ only below 1e-12 must not share a memo entry
    p = scalar_jacobi(head_lambda=(1.0,), tail_lambda=1.0, tail_alpha=1.0)
    model = JointModel(p, p)
    w = colored_word(ALG1, [c * ONE1 for c in (1e-13, 3e-13, 1, 1, 1)], [BLUE, RED, BLUE, RED])
    expected = joint_moment(model, w)
    assert np.isclose(expected[0, 0].real, 9e-26, rtol=1e-9)
    assert np.allclose(joint_moment_free_recursion(model, w), expected, rtol=1e-9, atol=0)


def test_free_recursion_frees_its_memo_on_return():
    model = JointModel(rand_params(ALG2), rand_params(ALG2))
    w = colored_word(ALG2, [rand_element(ALG2) for _ in range(9)], "bbrrbbrr")
    gc.collect()
    gc.disable()
    try:
        joint_moment_free_recursion(model, w)
        assert gc.collect() == 0  # nothing of the call is left in a reference cycle
    finally:
        gc.enable()


def test_monochromatic_reduces_to_marginal():
    model = JointModel(rand_params(), rand_params())
    for color, params in ((BLUE, model.params1), (RED, model.params2)):
        for n in range(1, 7):
            cs = [rand_sa() for _ in range(n + 1)]
            w = colored_word(ALG2, cs, [color] * n)
            assert np.allclose(joint_moment(model, w), moment(params, cs), atol=1e-10)


def test_depth_truncation_matches_depth_filtered_sum():
    # truncated marginals only see partitions with bounded reset depths
    p1, p2 = rand_params(ALG1), rand_params(ALG1)
    for k, l in ((1, 1), (2, 1), (2, 2)):
        model = JointModel(truncate(p1, k), truncate(p2, l))
        for n in range(1, 7):
            colors = tuple(rng.choice([BLUE, RED], size=n))
            cs = [rng.normal(size=(1, 1)) for _ in range(n + 1)]
            w = colored_word(ALG1, cs, colors)
            full_model = JointModel(p1, p2)
            filtered = sum(
                e_pi(full_model, w, cp)
                for cp in enumerate_tcnc(n, k=k, l=l)
                if tuple(element_color(cp, i) for i in range(1, n + 1)) == colors
            )
            assert np.allclose(joint_moment(model, w), filtered, atol=1e-10)


def test_counting_bridge_tcnc2():
    # arcsine-type marginals with unit alphas count colored pair partitions
    arc = scalar_jacobi(tail_alpha=1.0)
    model = JointModel(arc, arc)
    for n2 in (2, 4, 6, 8, 10):
        total = sum(
            joint_moment(model, unit_word(model, colors))[0, 0].real
            for colors in product((BLUE, RED), repeat=n2)
        )
        assert np.isclose(total, count_family("TCNC2", n2))


def test_counting_bridge_depth_kk():
    for k in (2, 3):
        nu = scalar_jacobi(head_alpha=(1.0,) * (k - 1), tail_alpha=0.0)
        model = JointModel(nu, nu)
        for n2 in (2, 4, 6, 8, 10):
            total = sum(
                joint_moment(model, unit_word(model, colors))[0, 0].real
                for colors in product((BLUE, RED), repeat=n2)
            )
            assert np.isclose(total, count_family("TCNC2^{k,l}", n2, k=k, l=k))


# -- free convolution ----------------------------------------------------------


def test_convolution_nu2_nu2():
    nu2 = scalar_jacobi(head_alpha=(1.0,), tail_alpha=0.0)
    model = JointModel(nu2, nu2)
    vals = [free_convolve_word(model, [ONE1] * (n + 1))[0, 0].real for n in range(7)]
    assert np.allclose(vals, [1, 0, 2, 0, 6, 0, 20])
    scal = free_convolve_scalar(nu_moments(2, 6), nu_moments(2, 6), 6)
    assert np.allclose(vals, [float(s) for s in scal])


def test_semicircular_additive():
    s1 = scalar_jacobi(tail_alpha=1.0)
    s2 = scalar_jacobi(tail_alpha=2.0)
    s3 = scalar_jacobi(tail_alpha=3.0)
    model = JointModel(s1, s2)
    for n in range(9):
        conv = free_convolve_word(model, [ONE1] * (n + 1))
        direct = moment(s3, [ONE1] * (n + 1))
        assert np.allclose(conv, direct, atol=1e-10)


def test_convolve_with_point_mass_shifts():
    from ncfree.jacobi import point_mass

    p = rand_params()
    c = rand_sa()
    model = JointModel(p, point_mass(ALG2, c))
    shifted = shift_by_delta(p, c)
    for n in range(6):
        cs = [rand_sa() for _ in range(n + 1)]
        assert np.allclose(
            free_convolve_word(model, cs), moment(shifted, cs), atol=1e-9
        )


@pytest.mark.parametrize("kind", ["full", "diagonal"])
def test_free_convolution_is_sum_over_color_sequences(kind):
    # (X_1 + X_2)^n expanded: one joint moment per color sequence
    alg = Algebra(kind, 2)
    into = (lambda m: np.diag(np.diag(m))) if kind == "diagonal" else (lambda m: m)

    def elem():
        return into(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))

    model = JointModel(rand_params(alg), rand_params(alg))
    for n in range(6):
        cs = [elem() for _ in range(n + 1)]
        expected = sum(
            joint_moment(model, colored_word(alg, cs, colors)) for colors in product((BLUE, RED), repeat=n)
        )
        got = free_convolve_word(model, cs)
        assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected))), (kind, n)


def test_moment_table_interface():
    p = rand_params()
    t = params_moment_table(p, 6)
    b = rand_sa()
    seq = t.sequence(b, 6)
    for n in range(7):
        assert np.allclose(seq[n], moment(p, [ALG2.unit()] + [b] * n))
    with pytest.raises(ValueError):
        t([ALG2.unit()] * 9)


def test_moment_tables_reject_negative_degree():
    s = semicircular(ALG2, LinMap.identity(ALG2))
    with pytest.raises(ValueError, match="degree must be >= 0"):
        params_moment_table(s, -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        free_convolve_moments(JointModel(s, s), -1)


def test_symmetry_color_swap():
    p1, p2 = rand_params(), rand_params()
    m12, m21 = JointModel(p1, p2), JointModel(p2, p1)
    for n in range(1, 6):
        colors = tuple(rng.choice([BLUE, RED], size=n))
        swapped = tuple(RED if c == BLUE else BLUE for c in colors)
        cs = [rand_sa() for _ in range(n + 1)]
        a = joint_moment(m12, colored_word(ALG2, cs, colors))
        b = joint_moment(m21, colored_word(ALG2, cs, swapped))
        assert np.allclose(a, b, atol=1e-10)


# -- Jacobi consistency of a convolution ---------------------------------------


def test_consistency_of_marginal_table():
    p = rand_params()
    # symmetrize: odd moments must vanish for the degree-4 test
    sym = JacobiParams(ALG2, (), (rand_cp(),), ALG2.zero(), rand_cp())
    rep = verify_jacobi_consistency(params_moment_table(sym, 4))
    assert rep["consistent"] and rep["residual"] < 1e-8


def test_consistency_semicircular_convolution():
    s = semicircular(ALG2, rand_cp())
    rep = verify_jacobi_consistency(free_convolve_moments(JointModel(s, s), 4))
    assert rep["consistent"]


def test_consistency_rejects_asymmetric_table():
    p = rand_params()  # generic odd moments nonzero
    with pytest.raises(ValueError):
        verify_jacobi_consistency(params_moment_table(p, 4))


def test_counterexample_flip_bernoulli():
    # Bernoulli with the flip map convolved with Bernoulli with the identity:
    # no Jacobi parameters over the diagonal algebra reproduce the moments
    algd = Algebra("diagonal", 2)
    flip = flip_map(2)
    ident = LinMap.identity(algd)
    b_flip = JacobiParams(algd, (algd.zero(),), (flip,), algd.zero(), LinMap.zero(algd))
    b_id = JacobiParams(algd, (algd.zero(),), (ident,), algd.zero(), LinMap.zero(algd))
    rep = verify_jacobi_consistency(free_convolve_moments(JointModel(b_flip, b_id), 4))
    assert not rep["consistent"]
    assert rep["residual"] > 1e-3
    assert "witness" in rep


def test_counterexample_witness():
    # several coefficient triples tie at the largest residual; any of them may be reported
    algd = Algebra("diagonal", 2)
    b_flip = bernoulli(algd, algd.zero(), algd.zero(), flip_map())
    b_id = bernoulli(algd, algd.zero(), algd.zero(), LinMap.identity(algd))
    table = free_convolve_moments(JointModel(b_flip, b_id), 4)
    rep = verify_jacobi_consistency(table)
    assert not rep["consistent"]
    assert negligible(rep["residual"] - 0.5, rep["residual"], 0.5)
    wit = rep["witness"]
    assert wit["residual"] == rep["residual"]  # the largest residual of any triple
    one = algd.unit()
    b1, b2, b3 = (matrix_from_json(wit[key]["entries"]) for key in ("b1", "b2", "b3"))
    assert all(any(np.array_equal(b, e) for e in algd.basis()) for b in (b1, b2, b3))
    beta1_b1, beta1_b3 = (table([one, b, one]) for b in (b1, b3))
    expected = table([one, b1, b2, b3, one]) - beta1_b1 @ b2 @ beta1_b3
    got = matrix_from_json(wit["lhs_minus_known"]["entries"])
    assert negligible(got - expected, got, expected)


def reference_consistency(table):
    """The degree-4 test word by word, one table call per basis word, with the
    per-basis expansion of beta_2: the reference for the batched test."""
    alg = table.algebra
    one, basis = alg.unit(), alg.basis()
    m = len(basis)
    beta1 = linmap_from_action(alg, lambda b: table([one, b, one]) if alg.contains(b) else alg.zero())
    pairs = list(product(range(m), repeat=2))
    fourth = np.array([[table([one, basis[i], bj, basis[k], one]) for bj in basis] for i, k in pairs])
    known = np.array([[beta1(basis[i]) @ bj @ beta1(basis[k]) for bj in basis] for i, k in pairs])

    def by_column(arr):
        return arr.transpose(0, 3, 2, 1).reshape(-1, m)

    design = by_column(np.array([[beta1(basis[i] @ bc @ basis[k]) for bc in basis] for i, k in pairs]))
    x, *_ = np.linalg.lstsq(design, by_column(fourth - known), rcond=None)
    residuals = design @ x - by_column(fourth - known)

    def beta2_action(b):
        out = alg.zero()
        for j, ej in enumerate(basis):
            out = out + np.sum(ej.conj() * b) * sum(x[c, j] * basis[c] for c in range(m))
        return out

    per_triple = np.abs(residuals).reshape(len(pairs), -1, m).max(axis=1)
    p, j = np.unravel_index(np.argmax(per_triple), per_triple.shape)
    triple = [basis[pairs[p][0]], basis[j], basis[pairs[p][1]]]
    consistent = negligible(residuals, fourth, known)
    return consistent, float(np.max(np.abs(residuals))), beta1, linmap_from_action(alg, beta2_action), triple


@pytest.mark.parametrize("which", ["counterexample", "semicircular", "diagonal semicircular"])
def test_consistency_matches_per_word_reference(which):
    algd = Algebra("diagonal", 2)
    if which == "counterexample":
        model = JointModel(
            bernoulli(algd, algd.zero(), algd.zero(), flip_map()),
            bernoulli(algd, algd.zero(), algd.zero(), LinMap.identity(algd)),
        )
    elif which == "semicircular":
        model = JointModel(semicircular(ALG2, rand_cp()), semicircular(ALG2, rand_cp()))
    else:
        diag_cp = LinMap.from_kraus(algd, [np.diag(rng.normal(size=2)).astype(complex) for _ in range(2)])
        model = JointModel(semicircular(algd, diag_cp), semicircular(algd, flip_map()))
    table = free_convolve_moments(model, 4)
    rep = verify_jacobi_consistency(table)
    consistent, residual, beta1, beta2, triple = reference_consistency(table)
    assert rep["consistent"] == consistent == (which != "counterexample")
    assert rep["beta1"].isclose(beta1)
    if consistent:
        assert negligible(rep["residual"] - residual, beta1.dense) and rep["beta2"].isclose(beta2)
    else:
        assert negligible(rep["residual"] - residual, residual)
        witness = [matrix_from_json(rep["witness"][key]["entries"]) for key in ("b1", "b2", "b3")]
        assert all(np.array_equal(a, b) for a, b in zip(witness, triple))


# -- the 2x2 diagonal model -----------------------------------------------------


def test_two_by_two_closed_forms():
    rep = two_by_two_model_check(3.0, 2.0, terms=80)
    # G_mu(b) = diag(1/(lam - 1/gam), 1/(gam - 1/lam)) = diag(0.4, 0.6)
    assert np.allclose(np.diag(rep["g_mu_closed"]), [0.4, 0.6])
    assert rep["g_mu_diff"] < 1e-8
    assert rep["g_conv_diff"] < 1e-8
    assert rep["subordination_residual"] < 1e-10


@pytest.mark.parametrize(
    "lam, gam",
    [(3.0, 3.0), (3.0, 2.7), (4.0, 2.0), (5.0, 2.0), (-3.0, -3.0), (2.5, 4.0), (4.0, 4.0), (10.0, 0.9),
     (-5.0, -2.0), (7.0, 3.0), (-2.5, 4.0), (5.0, -1.0), (4.5, 1.0),
     (2.01, 2.0), (2.01, -2.0), (-2.01, 2.0), (-2.01, -2.0)],
)
def test_two_by_two_f_mu_inverse_maps_back_to_b(lam, gam):
    # F_mu(diag(x, y)) = diag(x - 1/y, y - 1/x), also where |lam gam| is just past 4
    rep = two_by_two_model_check(lam, gam)
    x, y = np.diag(rep["f_mu_inverse"])
    assert np.allclose([x - 1 / y, y - 1 / x], [lam, gam], rtol=1e-12, atol=0)
    assert rep["subordination_residual"] <= 1e-12 * max(abs(lam), abs(gam))


@pytest.mark.parametrize(
    "lam, gam, terms",
    [(3.0, 2.0, 0), (3.0, 2.0, 1), (3.0, 2.0, 80), (-2.5, 4.0, 33), (5.0, -1.0, 89)]
    # the sample points of `verify --suite two_by_two`, and two just past |lam gam| = 4 with lam gam < 0
    + [(lam, gam, 80) for lam, gam in [(3.0, 3.0), (3.0, 2.7), (4.0, 2.0), (5.0, 2.0), (-3.0, -3.0), (2.5, 4.0),
                                       (4.0, 4.0), (10.0, 0.9), (-5.0, -2.0), (7.0, 3.0), (2.01, -2.0), (-2.01, 2.0)]],
)
def test_two_by_two_series_match_term_by_term_loop(lam, gam, terms):
    rep = two_by_two_model_check(lam, gam, terms=terms)
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    binv = np.linalg.inv(np.diag([lam, gam]).astype(complex))
    g_series, g_conv_series = np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)
    pw = np.eye(2, dtype=complex)
    for n in range(terms):
        term = binv @ np.diag(np.diag(pw))
        g_series += term
        g_conv_series += comb(2 * n, n) * term
        pw = pw @ a @ binv @ a @ binv
    for got, want in ((rep["g_mu_series"], g_series), (rep["g_conv_series"], g_conv_series)):
        assert got.shape == (2, 2)
        assert negligible(got - want, got, want)


def test_two_by_two_rejects_negative_terms():
    with pytest.raises(ValueError, match="terms"):
        two_by_two_model_check(3.0, 2.0, terms=-4)


def test_two_by_two_equal_entries_reduces_to_arcsine():
    # lam = gam = z: entries of G_{mu plus mu} equal the arcsine transform
    z = 3.0
    rep = two_by_two_model_check(z, z, terms=80)
    arcsine_g = 1.0 / np.sqrt(z * z - 4.0)
    assert np.allclose(np.diag(rep["g_conv_closed"]), [arcsine_g, arcsine_g])


# -- JSON -----------------------------------------------------------------------


def test_colored_word_json_roundtrip():
    cs = [rand_sa() for _ in range(4)]
    w = colored_word(ALG2, cs, [BLUE, RED, BLUE])
    obj = json.loads(json.dumps(colored_word_to_json(w)))
    assert obj["colors"] == [1, 2, 1]
    back = colored_word_from_json(obj)
    assert back.colors == w.colors
    for a, b in zip(back.coeffs, w.coeffs):
        assert np.allclose(a, b)
    # string colors also accepted on input
    obj["colors"] = ["b", "r", "b"]
    assert colored_word_from_json(obj).colors == w.colors


def test_colored_word_json_rejects_element_of_another_algebra():
    obj = colored_word_to_json(colored_word(ALG2, [np.eye(2)] * 3, [BLUE, RED]))
    obj["coeffs"][1]["algebra"] = {"kind": "diagonal", "dim": 2}
    with pytest.raises(ValueError, match="declares the algebra"):
        colored_word_from_json(obj)
    del obj["coeffs"][1]["algebra"]  # an element that names no algebra is read as one of the file's
    assert colored_word_from_json(obj).colors == (BLUE, RED)


@pytest.mark.parametrize("color", [True, False, 2.0, 1.0, 3, 0, "blue", None, [1]])
def test_colored_word_json_rejects_other_colors(color):
    obj = colored_word_to_json(colored_word(ALG2, [np.eye(2)] * 3, [BLUE, RED]))
    obj["colors"] = [1, color]
    with pytest.raises(ValueError, match="colors must be 1 \\(blue\\) or 2 \\(red\\)"):
        colored_word_from_json(obj)
