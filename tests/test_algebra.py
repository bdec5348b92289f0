import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree.algebra import (
    Algebra,
    LinMap,
    algebra_from_json,
    algebra_to_json,
    complex_from_json,
    flip_map,
    is_self_adjoint,
    linmap_from_json,
    linmap_to_json,
    matrix_to_json,
    negligible,
    unit_matrix,
    unvec,
    vec,
)
from reference import gram_psd_check, linmap_from_action

rng = np.random.default_rng(42)


def rand_mat(d=2):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_vec_unvec_roundtrip():
    for _ in range(5):
        m = rand_mat(3)
        assert np.allclose(unvec(vec(m), 3), m)


def test_vec_is_column_major():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(m), [1, 3, 2, 4])


def test_kraus_matches_action():
    alg = Algebra("full", 2)
    ks = [rand_mat(), rand_mat()]
    phi = LinMap.from_kraus(alg, ks)
    for _ in range(5):
        b = rand_mat()
        direct = sum(a @ b @ a.conj().T for a in ks)
        assert np.allclose(phi(b), direct)


def test_from_action_roundtrip():
    alg = Algebra("full", 2)
    phi = LinMap.from_kraus(alg, [rand_mat()])
    rebuilt = linmap_from_action(alg, phi.apply)
    assert phi.isclose(rebuilt)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", ["dense", "kraus"])
def test_apply_maps_a_stack_elementwise(d, make):
    alg = Algebra("full", d)
    if make == "dense":
        m = LinMap.from_dense(alg, rand_mat(d * d))
    else:
        m = LinMap.from_kraus(alg, [rand_mat(d), rand_mat(d)])
    stack = np.array([rand_mat(d) for _ in range(4)]).reshape(2, 2, d, d)
    got = m(stack)
    want = np.array([[m(b) for b in row] for row in stack])
    assert got.shape == stack.shape and negligible(got - want, want)
    assert np.array_equal(m(stack[0, :0]), np.zeros((0, d, d)))
    for bad in (rand_mat(d + 1), np.zeros((3, d, d + 1)), np.zeros(d * d)):
        with pytest.raises(ValueError, match="wrong shape"):
            m(bad)


def test_kraus_maps_are_cp():
    alg = Algebra("full", 2)
    assert LinMap.from_kraus(alg, [rand_mat(), rand_mat()]).is_cp()


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(min_value=1, max_value=3),
    t=st.just(0.0) | st.floats(min_value=1e-6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cp_survives_sums_compositions_and_nonnegative_scalings(kind, d, t, seed):
    # with no Kraus family kept, every verdict below is the Choi test on the dense matrix
    gen = np.random.default_rng(seed)
    alg = Algebra(kind, d)

    def kraus_map():
        ks = [gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) for _ in range(2)]
        return LinMap.from_kraus(alg, [np.diag(np.diag(k)) for k in ks] if kind == "diagonal" else ks)

    phi, psi = kraus_map(), kraus_map()
    assert (phi + psi).is_cp()
    assert phi.compose(psi).is_cp()
    assert phi.scale(t).is_cp()
    assert not phi.scale(-1).is_cp()  # phi is nonzero


def test_transpose_map_is_not_cp():
    alg = Algebra("full", 2)
    transpose = linmap_from_action(alg, lambda b: b.T)
    assert not transpose.is_cp()


def test_flip_map():
    fl = flip_map()
    assert np.allclose(fl(np.diag([3.0, 2.0])), np.diag([2.0, 3.0]))
    assert fl.is_cp()
    assert fl.preserves_diagonal()


def choi_by_units(m):
    d = m.algebra.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c[i * d : (i + 1) * d, j * d : (j + 1) * d] = m(unit_matrix(d, i, j))
    return c


def preserves_diagonal_by_units(m):
    d = m.algebra.dim
    images = [m(unit_matrix(d, i, i)) for i in range(d)]
    return negligible([np.where(np.eye(d, dtype=bool), 0, b) for b in images], m.dense)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_choi_and_diagonal_check_match_unit_matrix_images(d):
    alg = Algebra("full", d)
    diag = np.eye(d, dtype=bool).reshape(-1)
    for _ in range(5):
        dense = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        kept = dense.copy()
        kept[np.ix_(~diag, diag)] = 0  # sends the diagonal into itself
        for eps in (0.0, 1e-10, 1e-6):  # below and above the tolerance
            m = LinMap.from_dense(alg, kept + eps * dense)
            assert np.array_equal(m.choi(), choi_by_units(m))
            assert m.preserves_diagonal() == preserves_diagonal_by_units(m)
        m = LinMap.from_dense(alg, dense)
        assert np.array_equal(m.choi(), choi_by_units(m))
        assert m.preserves_diagonal() == preserves_diagonal_by_units(m) == (d == 1)


def test_composition_and_sums():
    alg = Algebra("full", 2)
    f = LinMap.from_kraus(alg, [rand_mat()])
    g = LinMap.from_kraus(alg, [rand_mat()])
    b = rand_mat()
    assert np.allclose(f.compose(g)(b), f(g(b)))
    assert np.allclose((f + g)(b), f(b) + g(b))
    assert np.allclose((2.5 * f)(b), 2.5 * f(b))
    assert np.allclose((f - g)(b), f(b) - g(b))


def test_gram_psd_check():
    a, b = rand_mat(), rand_mat()
    good = [[a.conj().T @ a, a.conj().T @ b], [b.conj().T @ a, b.conj().T @ b]]
    assert gram_psd_check(good)
    bad = [[np.eye(2), 3 * np.eye(2)], [3 * np.eye(2), np.eye(2)]]
    assert not gram_psd_check(bad)


def test_self_adjoint_predicate():
    m = rand_mat()
    assert is_self_adjoint(m + m.conj().T)
    assert not is_self_adjoint(m + m.conj().T + 1e-3 * 1j * np.eye(2))


def test_diagonal_algebra_contains():
    alg = Algebra("diagonal", 2)
    assert alg.contains(np.diag([1.0, 2.0]))
    assert not alg.contains(np.ones((2, 2)))


def test_linmap_json_roundtrip_kraus_and_dense():
    alg = Algebra("full", 2)
    phi = LinMap.from_kraus(alg, [rand_mat(), rand_mat()])
    back = linmap_from_json(alg, json.loads(json.dumps(linmap_to_json(phi))))
    assert phi.isclose(back)
    dense = LinMap.from_dense(alg, phi.dense)
    back2 = linmap_from_json(alg, json.loads(json.dumps(linmap_to_json(dense))))
    assert dense.isclose(back2)


def test_linmap_json_loads_the_kraus_form_and_writes_dense():
    alg = Algebra("full", 2)
    ks = [rand_mat(), rand_mat()]
    phi = LinMap.from_kraus(alg, ks)
    obj = json.loads(json.dumps({"kraus": [matrix_to_json(a) for a in ks]}))
    assert linmap_from_json(alg, obj).isclose(phi)
    assert list(linmap_to_json(phi)) == ["dense"]


def test_linmap_json_checks_kraus_shapes_before_allocating(monkeypatch):
    # at dim 3000 the (d^2, d^2) dense form would take over 1 PiB: a 1 x 1 operator is refused first
    def refuse(*_, **__):
        raise AssertionError("allocated the dense form")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ValueError, match="Kraus operators must be d x d"):
        linmap_from_json(Algebra("full", 3000), {"kraus": [[[1]]]})
    with pytest.raises(ValueError, match="Kraus operators must be d x d"):
        linmap_from_json(Algebra("full", 2), {"kraus": [[[1, 0], [0, 1]], [[1]]]})
    with pytest.raises(ValueError, match="a Kraus family needs at least one operator"):
        linmap_from_json(Algebra("full", 3000), {"kraus": []})


@pytest.mark.parametrize("kind", ["full", "diagonal"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_is_the_stack_of_matrix_units(kind, d):
    units = [(i, i) for i in range(d)] if kind == "diagonal" else [(i, j) for i in range(d) for j in range(d)]
    basis = Algebra(kind, d).basis()
    assert basis.shape == (len(units), d, d) and basis.dtype == complex
    for b, (i, j) in zip(basis, units):
        assert np.array_equal(b, unit_matrix(d, i, j))


def test_algebra_json_roundtrip():
    for kind, dim in (("full", 2), ("diagonal", 3)):
        alg = Algebra(kind, dim)
        assert algebra_from_json(algebra_to_json(alg)) == alg


def test_complex_json_accepts_numbers_and_pairs():
    assert complex_from_json(2) == 2
    assert complex_from_json(-0.5) == -0.5
    assert complex_from_json([1, -2.5]) == 1 - 2.5j


@pytest.mark.parametrize("v", ["1", True, None, [1], [1, 2, 3], ["1", 0], [0, False], {"re": 1}, (1, 2)])
def test_complex_json_rejects_non_numbers(v):
    with pytest.raises(ValueError, match="number or an \\[re, im\\] pair"):
        complex_from_json(v)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400])
@pytest.mark.parametrize("form", ["{}", "[{}, 0]", "[0, {}]"], ids=["bare", "real part", "imaginary part"])
def test_complex_json_rejects_non_finite_numbers(literal, form):
    # json.load reads these literals as NaN, an infinity or an int past the float range
    with pytest.raises(ValueError, match="finite number"):
        complex_from_json(json.loads(form.format(literal)))


@pytest.mark.parametrize("dim", [2.0, True, False, "2", None, np.int64(2)])
def test_algebra_rejects_non_integer_dim(dim):
    with pytest.raises(ValueError, match="dim must be an integer"):
        Algebra("full", dim)


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None])
def test_algebra_json_rejects_non_integer_dim(dim):
    with pytest.raises(ValueError, match="dim must be an integer"):
        algebra_from_json({"kind": "full", "dim": dim})
