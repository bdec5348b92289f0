"""The partition-sum engine entry, `jacobi.nc_sum`: one degree guard, one
membership check, and agreement with the independent routes."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree import jacobi, partitions
from ncfree.algebra import Algebra, LinMap, flip_map, negligible
from ncfree.jacobi import (
    DegreeCapError,
    JacobiParams,
    fock_moment,
    meixner,
    meixner_convolve,
    moment,
    moment_sequence,
    nc_sum,
    semicircular,
)
from ncfree.joint import (
    JointModel,
    colored_word,
    e_pi,
    free_convolve_moments,
    free_convolve_word,
    joint_moment,
    joint_moment_free_recursion,
    params_moment_table,
)
from ncfree.partitions import BLUE, RED, _colored_nc12, enumerate_tcnc


def rand_element(rng, alg):
    d = alg.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.diag(np.diag(a)) if alg.kind == "diagonal" else a


def rand_params(rng, alg, head):
    def kraus():
        return LinMap.from_kraus(alg, [rand_element(rng, alg) for _ in range(2)])

    def lam():
        a = rand_element(rng, alg)
        return a + a.conj().T

    return JacobiParams(alg, tuple(lam() for _ in range(head)), tuple(kraus() for _ in range(head)), lam(), kraus())


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, float(np.max(np.abs(want))))


# -- the degree guard ------------------------------------------------------------

ONE1 = np.eye(1, dtype=complex)
ALG1 = Algebra("full", 1)
SEMI1 = semicircular(ALG1, LinMap.identity(ALG1))
MODEL1 = JointModel(SEMI1, SEMI1)
ENTRIES = {
    "moment": lambda n: moment(SEMI1, [ONE1] * (n + 1)),
    "fock_moment": lambda n: fock_moment(SEMI1, [ONE1] * (n + 1)),
    "joint_moment": lambda n: joint_moment(MODEL1, colored_word(ALG1, [ONE1] * (n + 1), [BLUE, RED] * (n // 2))),
    "joint_moment_free_recursion": lambda n: joint_moment_free_recursion(
        MODEL1, colored_word(ALG1, [ONE1] * (n + 1), [BLUE, RED] * (n // 2))
    ),
    "free_convolve_word": lambda n: free_convolve_word(MODEL1, [ONE1] * (n + 1)),
    "moment_sequence": lambda n: moment_sequence(SEMI1, ONE1, n),
    "params_moment_table": lambda n: params_moment_table(SEMI1, n)([ONE1] * (n + 1)),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_engine_entry_honours_degree_cap(entry, monkeypatch):
    monkeypatch.setattr(partitions, "DEGREE_CAP", 4)
    ENTRIES[entry](4)
    with pytest.raises(DegreeCapError):
        ENTRIES[entry](6)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: moment_sequence(SEMI1, ONE1, 5), id="moment_sequence"),
        pytest.param(lambda: params_moment_table(SEMI1, 5), id="params_moment_table"),
        pytest.param(lambda: params_moment_table(SEMI1, 4).sequence(ONE1, 5), id="MomentTable.sequence"),
        pytest.param(lambda: free_convolve_moments(MODEL1, 5), id="free_convolve_moments"),
    ],
)
def test_moment_tables_refuse_a_degree_before_any_engine_call(call, monkeypatch):
    monkeypatch.setattr(partitions, "DEGREE_CAP", 4)
    calls, engine = [], jacobi.nc_sum
    monkeypatch.setattr(jacobi, "nc_sum", lambda *args: calls.append(args) or engine(*args))
    with pytest.raises(DegreeCapError):
        call()
    assert calls == []
    params_moment_table(SEMI1, 4).sequence(ONE1)  # within the cap every degree is one engine call
    assert len(calls) == 5


# -- coefficients outside B ------------------------------------------------------

ALGD = Algebra("diagonal", 2)
SEMID = semicircular(ALGD, flip_map())


@pytest.mark.parametrize(
    "engine",
    [
        moment,
        fock_moment,
        lambda p, cs: free_convolve_word(JointModel(p, p), cs),
        lambda p, cs: moment_sequence(p, cs[1], 0),  # degree 0 computes nothing from b, yet refuses it
    ],
    ids=["moment", "fock_moment", "free_convolve_word", "moment_sequence_degree_0"],
)
def test_engines_reject_coefficients_outside_algebra(engine):
    with pytest.raises(ValueError, match="algebra"):
        engine(SEMID, [np.ones((2, 2))] * 3)
    with pytest.raises(ValueError, match="algebra"):
        engine(SEMID, [np.eye(2), np.ones((2, 2)), np.eye(2)])
    with pytest.raises(ValueError, match="algebra"):
        engine(SEMID, [np.eye(3)] * 3)
    engine(SEMID, [np.eye(2)] * 3)  # the same word inside B computes


@pytest.mark.parametrize(
    "engine",
    [moment, fock_moment, lambda p, cs: free_convolve_word(JointModel(p, p), cs)],
    ids=["moment", "fock_moment", "free_convolve_word"],
)
def test_engines_reject_empty_word(engine):
    with pytest.raises(ValueError, match="at least one coefficient"):
        engine(SEMID, [])


# -- one engine, three independent routes ----------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(min_value=1, max_value=3),
    head=st.integers(min_value=0, max_value=2),
    n=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_sum_matches_independent_routes(kind, d, head, n, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    model = JointModel(rand_params(rng, alg, head), rand_params(rng, alg, head))
    coeffs = [rand_element(rng, alg) for _ in range(n + 1)]

    # one color: the partition sum against the Fock space
    assert_close(moment(model.params1, coeffs), fock_moment(model.params1, coeffs))

    # two colors on a random coloring: the partition sum against the freeness recursion
    w = colored_word(alg, coeffs, [(BLUE, RED)[i] for i in rng.integers(0, 2, size=n)])
    assert_close(joint_moment(model, w), joint_moment_free_recursion(model, w))

    # free convolution against the joint moments of every coloring, degree <= 4
    short = coeffs[:5]
    colorings = product((BLUE, RED), repeat=len(short) - 1)
    expected = sum(joint_moment(model, colored_word(alg, short, cs)) for cs in colorings)
    assert_close(free_convolve_word(model, short), expected)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.integers(min_value=1, max_value=3),
    head=st.integers(min_value=0, max_value=2),
    n=st.integers(min_value=9, max_value=11),
    m=st.integers(min_value=8, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_sum_matches_fock_past_the_enumeration_oracle(kind, d, head, n, m, seed):
    # degrees the enumeration oracle (n <= 7) does not reach; the Fock space does
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    params = rand_params(rng, alg, head)
    coeffs = [rand_element(rng, alg) for _ in range(n + 1)]
    assert_close(moment(params, coeffs), fock_moment(params, coeffs))

    # the two-color path at degree m: a Meixner pair convolves to the Meixner law
    # of the summed eta maps, read off the Fock space
    def kraus():
        return LinMap.from_kraus(alg, [rand_element(rng, alg) for _ in range(2)])

    lam, alpha = rand_element(rng, alg), kraus()
    lam = lam + lam.conj().T
    p1, p2 = meixner(alg, lam, alpha, kraus()), meixner(alg, lam, alpha, kraus())
    word = [rand_element(rng, alg) for _ in range(m + 1)]
    assert_close(free_convolve_word(JointModel(p1, p2), word), fock_moment(meixner_convolve(p1, p2), word))


# -- the per-block formula, the reference the engine is checked against ----------------


def reference_term(coeffs, blocks, params):
    """A partition term read off block by block: lambda_k and alpha_k looked up
    from `params[color]` at each block's depth, alpha applied through LinMap."""
    out = coeffs[0]
    opened = []  # (product before the pair, its alpha, its closer), innermost last
    for blk, c, k in blocks:
        while opened and opened[-1][2] < blk[0]:
            before, alpha, q = opened.pop()
            out = before @ alpha(out) @ coeffs[q]
        if len(blk) == 1:
            out = out @ params[c].lam(k) @ coeffs[blk[0]]
        else:
            opened.append((out, params[c].alpha(k), blk[1]))
            out = coeffs[blk[0]]
    for before, alpha, q in reversed(opened):
        out = before @ alpha(out) @ coeffs[q]
    return out


def assert_negligible(got, want):
    assert negligible(got - want, got, want)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.sampled_from([1, 2, 3]),
    heads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    n=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_e_pi_sums_to_joint_moment(kind, d, heads, n, seed):
    # the terms E_pi of a random coloring, each read off its blocks, add up to the engine's sum
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    model = JointModel(rand_params(rng, alg, heads[0]), rand_params(rng, alg, heads[1]))
    colors = [(BLUE, RED)[i] for i in rng.integers(0, 2, size=n)]
    w = colored_word(alg, [rand_element(rng, alg) for _ in range(n + 1)], colors)
    terms = [e_pi(model, w, p) for p in enumerate_tcnc(n)
             if all(colors[i - 1] == c for blk, c in zip(p.base.blocks, p.color) for i in blk)]
    assert_negligible(sum(terms), joint_moment(model, w))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.sampled_from([1, 2, 3]),
    heads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    colors=st.lists(st.sampled_from([(BLUE,), (RED,), (BLUE, RED)]), max_size=7),
    zero_lambda=st.booleans(),
    batch=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nc_sum_matches_enumeration_oracle(kind, d, heads, colors, zero_lambda, batch, seed):
    # the enumeration oracle: the paper's definition, one reference term per colored partition
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    params = {}
    for c, head in zip((BLUE, RED), heads):
        p = rand_params(rng, alg, head)
        if zero_lambda:  # the pairs-only path
            p = JacobiParams(alg, (alg.zero(),) * head, p.head_alpha, alg.zero(), p.tail_alpha)
        params[c] = p
    # with a batch axis every coefficient stacks two words
    coeffs = [np.array([rand_element(rng, alg) for _ in range(2)]) if batch else rand_element(rng, alg)
              for _ in range(len(colors) + 1)]
    want = sum(reference_term(coeffs, blocks, params) for blocks in _colored_nc12(len(colors), colors))
    got = nc_sum(coeffs, colors, params)
    assert got.shape == ((2, d, d) if batch else (d, d))
    assert_negligible(got, want)


@pytest.mark.parametrize("kind", ["full", "diagonal"])
def test_pairs_only_sum_matches_per_block_formula(kind):
    # every lambda is exactly zero, so nc_sum skips the singleton terms
    rng = np.random.default_rng(11)
    alg = Algebra(kind, 2)
    params = {}
    for c, head in ((BLUE, 2), (RED, 0)):
        p = rand_params(rng, alg, head)
        params[c] = JacobiParams(alg, (alg.zero(),) * head, p.head_alpha, alg.zero(), p.tail_alpha)
    coeffs = [rand_element(rng, alg) for _ in range(7)]
    colors = [(BLUE, RED), (BLUE,), (BLUE, RED), (RED,), (BLUE, RED), (BLUE, RED)]
    want = sum(reference_term(coeffs, blocks, params) for blocks in _colored_nc12(6, colors))
    assert np.any(want)
    assert_negligible(nc_sum(coeffs, colors, params), want)


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("colors", [[(BLUE,)], [(BLUE,), (RED,), (BLUE, RED)]], ids=["one color", "two colors"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_pairs_only_sum_at_odd_degree_is_exactly_zero(n, colors, batch, monkeypatch):
    # no pairing covers an odd number of positions: nc_sum returns zeros before tabulating anything
    rng = np.random.default_rng(n)
    alg = Algebra("full", 2)
    params = {}
    for c, head in ((BLUE, 2), (RED, 1)):
        p = rand_params(rng, alg, head)
        params[c] = JacobiParams(alg, (alg.zero(),) * head, p.head_alpha, alg.zero(), p.tail_alpha)
    coeffs = [np.array([rand_element(rng, alg) for _ in range(3)]) if batch else rand_element(rng, alg)
              for _ in range(n + 1)]
    word_colors = [colors[i % len(colors)] for i in range(n)]
    want = sum(reference_term(coeffs, blocks, params) for blocks in _colored_nc12(n, word_colors))
    monkeypatch.setattr(jacobi, "_tables", lambda *args: pytest.fail("tabulated an odd pairs-only sum"))
    got = nc_sum(coeffs, word_colors, params)
    assert got.shape == want.shape == ((3, 2, 2) if batch else (2, 2))
    assert got.dtype == complex
    assert not np.any(got) and not np.any(want)


# -- a batch axis: a grid of equal-length words in one engine call ------------------


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["full", "diagonal"]),
    d=st.sampled_from([1, 2, 3]),
    heads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    n=st.integers(min_value=0, max_value=6),
    words=st.integers(min_value=1, max_value=5),
    zero_lambda=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_words_match_per_word_results(kind, d, heads, n, words, zero_lambda, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(kind, d)
    params = []
    for head in heads:
        p = rand_params(rng, alg, head)
        if zero_lambda:  # the pairs-only path
            p = JacobiParams(alg, (alg.zero(),) * head, p.head_alpha, alg.zero(), p.tail_alpha)
        params.append(p)
    model = JointModel(*params)
    # each position holds one coefficient per word, or one shared by every word
    coeffs = [
        np.array([rand_element(rng, alg) for _ in range(words)]) if rng.integers(2) else rand_element(rng, alg)
        for _ in range(n + 1)
    ]
    per_word = [[c if c.ndim == 2 else c[w] for c in coeffs] for w in range(words)]
    colors = [[(BLUE, RED)[i]] for i in rng.integers(0, 2, size=n)]

    routes = [
        lambda cs: moment(model.params1, cs),
        lambda cs: nc_sum(cs, colors, model.by_color),  # a colored word, as joint_moment reads it
        lambda cs: free_convolve_word(model, cs),
    ]
    for route in routes:
        got = route(coeffs)
        want = np.array([route(cs) for cs in per_word])
        assert got.shape == ((words, d, d) if any(c.ndim == 3 for c in coeffs) else (d, d))
        assert negligible(got - want, got, want)


def test_batch_shapes_broadcast_together():
    rng = np.random.default_rng(5)
    alg = Algebra("full", 2)
    p = rand_params(rng, alg, 1)
    rows = np.array([rand_element(rng, alg) for _ in range(3)])
    cols = np.array([rand_element(rng, alg) for _ in range(4)])
    one = alg.unit()
    got = moment(p, [one, rows[:, None], cols[None, :], one])
    assert got.shape == (3, 4, 2, 2)
    for i, j in product(range(3), range(4)):
        assert_negligible(got[i, j], moment(p, [one, rows[i], cols[j], one]))


def test_moment_sequence_keeps_the_batch_axis_at_degree_zero():
    # mu[(X b)^0] is the unit, broadcast to b's batch shape like every later entry
    rng = np.random.default_rng(11)
    alg = Algebra("full", 2)
    semi = semicircular(alg, LinMap.identity(alg))
    bs = np.array([rand_element(rng, alg) for _ in range(2)])
    seq = moment_sequence(semi, bs, 2)
    assert [m.shape for m in seq] == [(2, 2, 2)] * 3
    for w in range(2):
        for got, want in zip(seq, moment_sequence(semi, bs[w], 2)):
            assert_negligible(got[w], want)


def test_batched_coefficients_are_checked_one_by_one():
    # a stack is judged per matrix: one off-diagonal coefficient among diagonal ones is rejected
    stack = np.array([np.diag([1e9, 1e9]), np.ones((2, 2))])
    with pytest.raises(ValueError, match="algebra"):
        moment(SEMID, [np.eye(2), stack, np.eye(2)])
    with pytest.raises(ValueError, match="algebra"):
        moment(SEMID, [np.eye(2), np.ones((3, 1, 1)), np.eye(2)])  # a 1 x 1 shape does not broadcast to d x d
    assert moment(SEMID, [np.eye(2), stack[:1], np.eye(2)]).shape == (1, 2, 2)


@pytest.mark.parametrize("words", [1, 3])
def test_fock_oracle_rejects_a_batch_axis(words):
    # the oracle takes one word: a stacked coefficient, even a stack of one, is refused by name
    alg = Algebra("full", 2)
    semi = semicircular(alg, LinMap.identity(alg))
    stack = np.array([np.eye(2) * (k + 1) for k in range(words)], dtype=complex)
    with pytest.raises(ValueError, match="batch"):
        fock_moment(semi, [np.eye(2), stack, np.eye(2)])


def test_fock_oracle_caps_its_memory():
    # full d = 3 holds 9^(n//2 + 1) entries in its largest Fock component: 9^7 at degree 12, 9^9 at degree 16
    rng = np.random.default_rng(3)
    alg = Algebra("full", 3)
    p = rand_params(rng, alg, 2)
    word = [rand_element(rng, alg) for _ in range(17)]
    with pytest.raises(DegreeCapError, match="9\\^9 = 387420489 entries"):
        fock_moment(p, word)
    assert_negligible(fock_moment(p, word[:13]), moment(p, word[:13]))


def test_fock_oracle_peak_memory_is_a_small_multiple_of_its_largest_component():
    # full d = 3: the largest component holds 9^5 complex entries at degrees 8 and 9.  One call peaks below 3x
    # that at both, though at degree 9 the top component is built on two steps in a row: the deepest component
    # of a step goes first, and each is dropped as soon as its images are formed
    rng = np.random.default_rng(4)
    alg = Algebra("full", 3)
    p = rand_params(rng, alg, 1)
    word = [rand_element(rng, alg) for _ in range(10)]
    for n, multiple in ((8, 3), (9, 3)):
        fock_moment(p, word[: n + 1])  # a first call may allocate once-only caches of numpy
        tracemalloc.start()
        try:
            fock_moment(p, word[: n + 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiple * 9**5 * np.dtype(complex).itemsize, n


# -- the free-product Fock oracle: nc_sum's arguments, any colouring ---------------------------------

ALGEBRAS = [Algebra("full", 1), Algebra("full", 2), Algebra("full", 3), Algebra("diagonal", 2), Algebra("diagonal", 3)]
PATTERNS = {  # colors for a degree-n word
    "one colour": lambda rng, n: [(BLUE,)] * n,
    "fixed colouring": lambda rng, n: [((BLUE,), (RED,))[i] for i in rng.integers(0, 2, size=n)],
    "both colours everywhere": lambda rng, n: [(BLUE, RED)] * n,
    "mixed sets": lambda rng, n: [((BLUE,), (RED,), (BLUE, RED))[i] for i in rng.integers(0, 3, size=n)],
}


def rand_algebraic_params(rng, alg, head):
    """A law outside the positive case: lambdas that are not self-adjoint, and alphas from random dense
    matrices, kept to the diagonal positions on the diagonal algebra."""
    d = alg.dim
    keep = np.eye(d, dtype=bool).reshape(-1) | (alg.kind == "full")

    def alpha():
        dense = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        return LinMap.from_dense(alg, np.where(np.outer(keep, keep), dense, 0))

    lams = [rand_element(rng, alg) for _ in range(head + 1)]
    return JacobiParams(alg, tuple(lams[1:]), tuple(alpha() for _ in range(head)), lams[0], alpha())


@pytest.mark.parametrize("algebraic", [False, True], ids=["positive", "algebraic"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.dim}")
@pytest.mark.parametrize("pattern", list(PATTERNS))
def test_free_product_fock_oracle_matches_nc_sum(pattern, alg, algebraic):
    # the colours are free in the free product by construction, and in the partition sum by its reset rule
    rng = np.random.default_rng([list(PATTERNS).index(pattern), ALGEBRAS.index(alg), algebraic])
    law = rand_algebraic_params if algebraic else rand_params
    for n in (8, *rng.integers(0, 8, size=2)):
        params = {c: law(rng, alg, int(rng.integers(0, 3))) for c in (BLUE, RED)}
        colors = PATTERNS[pattern](rng, n)
        coeffs = [rand_element(rng, alg) for _ in range(n + 1)]
        want = nc_sum(coeffs, colors, params)
        assert np.max(np.abs(jacobi._fock(coeffs, colors, params) - want)) <= 1e-12 * np.max(np.abs(want))


def test_free_product_fock_oracle_caps_its_deepest_level():
    # full d = 3 at degree 10: one colour holds 9^6 entries at its deepest level, two colours 2^5 labellings of them
    rng = np.random.default_rng(5)
    alg = Algebra("full", 3)
    params = {c: rand_params(rng, alg, 1) for c in (BLUE, RED)}
    word = [rand_element(rng, alg) for _ in range(11)]
    tracemalloc.start()
    try:
        with pytest.raises(DegreeCapError, match="2\\^5 labellings"):
            jacobi._fock(word, [(BLUE, RED)] * 10, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9**6 * np.dtype(complex).itemsize  # refused before a single Fock vector is allocated
    assert_negligible(jacobi._fock(word, [(BLUE,)] * 10, params), moment(params[BLUE], word))


@pytest.mark.parametrize("engine", [nc_sum, jacobi._fock], ids=["nc_sum", "_fock"])
@pytest.mark.parametrize(
    "colors",
    [[(BLUE, BLUE)] * 2, [(BLUE,), (RED,)], [(BLUE,)] * 3, [(BLUE,)], [[[BLUE]], [[BLUE]]]],
    ids=["repeated colour", "colour without parameters", "a set too many", "a set too few", "unhashable colour"],
)
def test_engines_refuse_colour_sets_that_do_not_fit_the_word(engine, colors):
    # a repeated colour was summed twice (2 by nc_sum and 4 by _fock, where the moment is 1), a colour without
    # parameters was a bare KeyError, a set per position is what a degree-2 word reads, and an unhashable
    # colour (a list) was a bare TypeError from the set built of it
    semi = semicircular(Algebra("full", 1), LinMap.identity(Algebra("full", 1)))
    with pytest.raises(ValueError, match="a degree-2 word takes 2 sets of distinct colours of \\['b'\\]"):
        engine([np.eye(1)] * 3, colors, {BLUE: semi})


def test_free_product_fock_oracle_rejects_an_empty_word():
    # the cap counts the colours of the word only after the word is checked
    with pytest.raises(ValueError, match="at least one coefficient"):
        jacobi._fock([], [], {BLUE: SEMID, RED: SEMID})
