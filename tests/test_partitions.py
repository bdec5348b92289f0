import math
import operator
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree import partitions
from ncfree.partitions import (
    BLUE,
    RED,
    ColoredPartition,
    DegreeCapError,
    Partition12,
    _colored_nc12,
    _count_colored_nc12,
    _first_return,
    count_family,
    enumerate_nc12,
    enumerate_tcnc,
    relative_depths,
)
from ncfree.scalar import free_convolve_scalar, nu_moments, tcnc_recursion
from reference import block_depths, tcnc_depth_ok

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_nc12_counts_are_motzkin():
    for n in range(10):
        assert sum(1 for _ in enumerate_nc12(n)) == MOTZKIN[n]


def test_nc2_counts_are_catalan():
    for n in range(7):
        assert sum(1 for _ in enumerate_nc12(2 * n, pairs_only=True)) == CATALAN[n]
        assert sum(1 for _ in enumerate_nc12(2 * n + 1, pairs_only=True)) == 0


def test_crossing_rejected():
    with pytest.raises(ValueError):
        Partition12(4, ((1, 3), (2, 4)))


def test_partition_must_cover():
    with pytest.raises(ValueError):
        Partition12(3, ((1, 2),))


@pytest.mark.parametrize(
    "n, blocks",
    [(3, ((1, 2), (2, 3))), (2, ((1,), (1, 2))), (2, ((1, 2), (2,))), (6, ((1, 4), (2, 3), (3, 6), (5,)))],
)
def test_overlapping_blocks_rejected(n, blocks):
    # every element is covered, but some element lies in two blocks
    with pytest.raises(ValueError):
        Partition12(n, blocks)


def test_crossing_rejected_after_closed_pairs():
    # (1,2) closes before (3,5) opens; (4,6) crosses (3,5)
    with pytest.raises(ValueError, match="crossing"):
        Partition12(6, ((1, 2), (3, 5), (4, 6)))
    Partition12(6, ((1, 2), (3, 6), (4, 5)))


def test_block_depths_nested():
    p = Partition12(8, ((1, 8), (2, 6), (3, 5), (4,), (7,)))
    assert block_depths(p) == (1, 2, 3, 4, 2)


def test_relative_depths_reset_at_color_change():
    # blue (1,8),(2,6),(4); red (3,5),(7): the inner blue singleton resets at
    # the covering red pair, the red singleton resets under the blue cover
    p = Partition12(8, ((1, 8), (2, 6), (3, 5), (4,), (7,)))
    cp = ColoredPartition(p, (BLUE, BLUE, RED, BLUE, RED))
    assert relative_depths(cp) == (1, 2, 1, 1, 1)


def test_relative_depth_monochromatic_equals_absolute():
    for n in range(1, 7):
        for p in enumerate_nc12(n):
            cp = ColoredPartition(p, (BLUE,) * len(p.blocks))
            assert relative_depths(cp) == block_depths(p)


def test_color_swap_preserves_relative_depths():
    for cp in enumerate_tcnc(6):
        swap = ColoredPartition(
            cp.base, tuple(RED if c == BLUE else BLUE for c in cp.color)
        )
        assert relative_depths(swap) == relative_depths(cp)


def test_nc12_depth_truncation():
    # NC_{1,2}(4) has 9 elements and exactly one contains a depth-2 pair
    assert sum(1 for _ in enumerate_nc12(4, k=2)) == 8
    assert sum(1 for _ in enumerate_nc12(4, k=1)) == 1  # no pairs survive k=1
    for n in range(7):
        assert sum(1 for _ in enumerate_nc12(n, k=99)) == MOTZKIN[n]


def test_tcnc_pairings_count():
    # 2 pairings of 4 elements, each with 2^2 block colorings
    assert sum(1 for _ in enumerate_tcnc(4, pairs_only=True)) == 8
    for n in range(1, 5):
        assert (
            sum(1 for _ in enumerate_tcnc(2 * n, pairs_only=True))
            == CATALAN[n] * 2**n
        )


def test_counting_table_spot_checks():
    assert count_family("TCNC2^{k,l}", 6, 2, 2) == 20
    assert count_family("TCNC2^{k,l}", 10, 2, 2) == 252
    assert count_family("TCNC2^{k,l}", 12, 3, 3) == 5948
    assert count_family("TCNC2^{k,l}", 12, 4, 4) == 8014
    assert count_family("TCNC2^{k,l}", 12, 7, 7) == 8448


def test_depth_filter_matches_predicate():
    for n in (4, 6):
        for k, l in ((2, 2), (2, 3), (3, 2)):
            direct = {
                str(cp) for cp in enumerate_tcnc(n) if tcnc_depth_ok(cp, k, l)
            }
            filtered = {str(cp) for cp in enumerate_tcnc(n, k=k, l=l)}
            assert direct == filtered


def test_text_format():
    p = Partition12(5, ((1, 4), (2, 3), (5,)))
    assert str(p) == "(1,4) (2,3) (5)"
    cp = ColoredPartition(p, (BLUE, RED, BLUE))
    assert str(cp) == "(1,4):b (2,3):r (5):b"


@given(st.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None)
def test_enumerated_partitions_are_valid(n):
    seen = set()
    for p in enumerate_nc12(n):
        # constructor revalidates (cover, disjoint, non-crossing)
        assert p.n == n
        assert str(p) not in seen
        seen.add(str(p))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_depth_bound_monotone(n, k):
    a = sum(1 for _ in enumerate_nc12(n, k=k))
    b = sum(1 for _ in enumerate_nc12(n, k=k + 1))
    assert a <= b


def test_recursive_decomposition_invariant():
    # |TCNC_2(2n)| satisfies c_n = sum_j 2*c_{j-1}*c_{n-j} with the color of
    # the first pair free and the inside/outside split independent
    counts = {0: 1}
    for n in range(1, 6):
        counts[n] = sum(2 * counts[j - 1] * counts[n - j] for j in range(1, n + 1))
    # closed form is 2^n * Catalan(n); check against enumeration
    for n in range(1, 6):
        assert counts[n] == sum(1 for _ in enumerate_tcnc(2 * n, pairs_only=True))


# -- the colored generator against the object route ------------------------------


def colored_route(n, colors, pairs_only):
    """enumerate_nc12 times the colors allowed at both ends of each block."""
    for p in enumerate_nc12(n, pairs_only):
        choices = [[c for c in colors[blk[0] - 1] if c in colors[blk[-1] - 1]] for blk in p.blocks]
        for coloring in product(*choices):
            yield ColoredPartition(p, coloring)


def reference_route(n, colors, k, l, pairs_only):
    """Every colored partition built the slow way, filtered by tcnc_depth_ok."""
    return (cp for cp in colored_route(n, colors, pairs_only) if tcnc_depth_ok(cp, k, l))


BOUNDS = st.one_of(st.integers(min_value=1, max_value=4), st.just(math.inf))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=8),
    k=BOUNDS,
    l=BOUNDS,
    pairs_only=st.booleans(),
)
def test_generator_matches_object_route(data, n, k, l, pairs_only):
    colors = data.draw(st.lists(st.sampled_from([(BLUE,), (RED,), (BLUE, RED)]), min_size=n, max_size=n))
    got = list(_colored_nc12(n, colors, pairs_only, k, l))
    assert len(set(got)) == len(got)
    want = {
        tuple(zip(cp.base.blocks, cp.color, relative_depths(cp)))
        for cp in reference_route(n, colors, k, l, pairs_only)
    }
    assert set(got) == want


# family: (colors at every position, pairs only, depth-bounded by K_L)
FAMILIES = {
    "NC12": ((BLUE,), False, False),
    "NC2": ((BLUE,), True, False),
    "NC12^k": ((BLUE,), False, True),
    "NC2^k": ((BLUE,), True, True),
    "TCNC12": ((BLUE, RED), False, False),
    "TCNC2": ((BLUE, RED), True, False),
    "TCNC^{k,l}": ((BLUE, RED), False, True),
    "TCNC2^{k,l}": ((BLUE, RED), True, True),
}
K_L = (2, 3)


def test_count_family_matches_object_route():
    # one pass of the colored route per n and color set serves its four
    # families: the pairings are the members without singletons, and the
    # bounded families keep the members tcnc_depth_ok(., *K_L) admits
    for n in range(11):
        tally = Counter()
        for colors in ((BLUE,), (BLUE, RED)):
            for cp in colored_route(n, [colors] * n, False):
                pairing = all(len(blk) == 2 for blk in cp.base.blocks)
                tally[colors, pairing, tcnc_depth_ok(cp, *K_L)] += 1
        for family, (colors, pairs_only, bounded) in FAMILIES.items():
            want = sum(
                count
                for (cs, pairing, within), count in tally.items()
                if cs == colors and (pairing or not pairs_only) and (within or not bounded)
            )
            bounds = K_L[: len(colors)] if bounded else ()  # the bounds the family uses, one per color
            assert count_family(family, n, *bounds) == want, (family, n)


def outcome(count):
    try:
        return count()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_counting_walk_matches_the_generator(family, monkeypatch):
    colors, pairs_only, bounded = FAMILIES[family]
    width = len(colors) if bounded else 0  # a bounded family takes one depth bound per color

    def both(n, bounds):
        walked = outcome(lambda: count_family(family, n, *bounds))
        generated = outcome(lambda: sum(1 for _ in _colored_nc12(n, [colors] * n, pairs_only, *bounds)))
        assert walked == generated, (family, n, bounds)
        return walked

    for n, bounds in product(range(11), product(range(1, 5), repeat=width)):
        assert isinstance(both(n, bounds), int)
    # per-position color sets that no family uses: blue only, red only, or both in either order
    mixed = [(BLUE,), (RED,), (BLUE, RED), (RED, BLUE)]
    for n, bounds, step in product(range(9), product(range(1, 5), repeat=width), range(1, 4)):
        sets = [mixed[(step * i + step - 1) % 4] for i in range(n)]
        counted = _count_colored_nc12(n, sets, pairs_only, *bounds)
        assert counted == sum(1 for _ in _colored_nc12(n, sets, pairs_only, *bounds)), (family, sets, bounds)
    # bad arguments raise what the generator raises: the degree cap first, then n, then the bounds
    monkeypatch.setattr(partitions, "DEGREE_CAP", 6)
    for n, bounds in product((-2, 4, 7, 40), product((0, 2), repeat=width)):
        both(n, bounds)
    assert both(7, (0,) * width)[0] is DegreeCapError
    assert both(-2, (0,) * width) == (ValueError, "n must be nonnegative")
    if bounded:
        with pytest.raises(ValueError, match="needs the depth bound"):
            count_family(family, 40)


@pytest.mark.parametrize("k, l", [(2, 2), (3, 5), (4, 4), (6, 3)])
def test_first_return_counts_past_the_degree_cap(k, l):
    # _first_return checks no degree: with the counter's factors and depth cap it counts TCNC_2^{k,l}(40), where
    # count_family stops at the cap, in polynomial time; the two routes that never build a partition must agree
    n = 40
    ones = dict.fromkeys((BLUE, RED), [[1] * (n + 1)] * n)
    cap = {BLUE: min(k - 1, n), RED: min(l - 1, n)}
    counted = _first_return(n, [(BLUE, RED)] * n, True, {BLUE: k, RED: l}, ones,
                            lambda c, depth, i, q, inside: 1 if inside is None else inside, operator.mul, 1, 0, cap)
    assert counted == int(free_convolve_scalar(nu_moments(k, n), nu_moments(l, n), n)[n])
    if k == l:
        assert counted == tcnc_recursion(k, n // 2)[-1]


@pytest.mark.parametrize(
    "family, bounds, missing",
    [("NC12^k", (), "k"), ("NC2^k", (), "k"), ("TCNC^{k,l}", (2,), "l"), ("TCNC2^{k,l}", (), "k and l")],
)
def test_count_family_names_missing_bound(family, bounds, missing):
    with pytest.raises(ValueError, match=f"needs the depth bound {missing}$"):
        count_family(family, 4, *bounds)


@pytest.mark.parametrize(
    "family, bounds, unused",
    [("NC12", (0, 0), "k and l"), ("TCNC12", (0,), "k"), ("NC12^k", (2, -5), "l")],
)
def test_count_family_rejects_unused_bound(family, bounds, unused):
    with pytest.raises(ValueError, match=f"takes no depth bound {unused}$"):
        count_family(family, 4, *bounds)


@pytest.mark.parametrize(
    "enumerate_at",
    [lambda n: count_family("NC12", n), lambda n: list(enumerate_nc12(n)), lambda n: list(enumerate_tcnc(n, True))],
    ids=["count_family", "enumerate_nc12", "enumerate_tcnc"],
)
def test_enumerations_honour_the_degree_cap(enumerate_at, monkeypatch):
    monkeypatch.setattr(partitions, "DEGREE_CAP", 4)
    enumerate_at(4)
    with pytest.raises(DegreeCapError, match="degree 5 exceeds cap 4"):
        enumerate_at(5)
