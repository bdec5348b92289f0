"""Non-crossing partitions with singleton/pair blocks, one- and two-color, including
the depth-restricted families, and the one first-return recursion (_first_return)
that sums over them: jacobi.nc_sum's moments, and the family counts as exact ints.

Partitions of {1..n} are stored canonically: blocks sorted by minimum
element.  Colors are 'b' (blue) and 'r' (red).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

BLUE = "b"
RED = "r"
DEGREE_CAP = 16


class DegreeCapError(ValueError):
    """Raised when a requested moment degree exceeds DEGREE_CAP."""


def check_degree(n: int) -> None:
    """Raise DegreeCapError if degree n exceeds DEGREE_CAP."""
    if n > DEGREE_CAP:
        raise DegreeCapError(f"degree {n} exceeds cap {DEGREE_CAP}")


@dataclass(frozen=True)
class Partition12:
    """A non-crossing partition of {1..n} into singletons and pairs."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for blk in self.blocks:
            if len(blk) not in (1, 2) or list(blk) != sorted(blk):
                raise ValueError(f"bad block {blk}")
        if sorted(i for blk in self.blocks for i in blk) != list(range(1, self.n + 1)):
            raise ValueError("blocks do not partition {1..n}")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks not in canonical order")
        covers = []  # the pairs covering the current block, innermost last
        for blk in self.blocks:
            while covers and covers[-1][1] < blk[0]:
                covers.pop()
            if covers and covers[-1][1] < blk[-1]:
                raise ValueError(f"crossing blocks {covers[-1]}, {blk}")
            if len(blk) == 2:
                covers.append(blk)

    def __str__(self):
        return " ".join("(" + ",".join(map(str, blk)) + ")" for blk in self.blocks)


@dataclass(frozen=True)
class ColoredPartition:
    """A Partition12 whose blocks each carry one of two colors."""

    base: Partition12
    color: tuple[str, ...]

    def __post_init__(self):
        if len(self.color) != len(self.base.blocks):
            raise ValueError("one color per block required")
        if any(c not in (BLUE, RED) for c in self.color):
            raise ValueError("colors must be 'b' or 'r'")

    def __str__(self):
        return " ".join(
            "(" + ",".join(map(str, blk)) + "):" + c
            for blk, c in zip(self.base.blocks, self.color)
        )


def _check_ints(n, k=math.inf, l=math.inf) -> None:
    """Refuse, by name, a size n or a depth bound k or l that is no int (a bool is none; math.inf bounds nothing).
    Callers check before they build a list of n positions: a k of 2.5 would count as 3, and an n of 8.0 fail there."""
    for name, v in (("n", n), ("k", k), ("l", l)):
        if type(v) is not int and (name == "n" or v != math.inf):
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _nonempty(n: int, pairs_only: bool, k: float, l: float) -> bool:
    """Check the arguments of the colored NC_{1,2}(n) generator and counter, their
    types and the degree cap first, so every enumeration refuses more positions than the cap
    before it starts; False when the family is empty (pairings of an odd n)."""
    _check_ints(n, k, l)
    check_degree(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1 or l < 1:
        raise ValueError("depth bounds must be >= 1")
    return not (pairs_only and n % 2)


def _colored_nc12(
    n: int, colors: Sequence[Sequence[str]], pairs_only: bool = False, k: float = math.inf, l: float = math.inf
) -> Iterator[tuple[tuple[tuple[int, ...], str, int], ...]]:
    """Yield every colored NC_{1,2}(n) (NC_2(n) if pairs_only) partition as
    (block, color, depth) triples in canonical order.  colors[i-1] lists the
    colors allowed at position i and a block takes one allowed at both ends;
    its depth follows the reset rule (relative_depths) from the pair it is
    generated under.  Pairs of depth >= k (blue) or >= l (red) are skipped."""
    if not _nonempty(n, pairs_only, k, l):
        return
    bound = {BLUE: k, RED: l}
    out = []

    def walk(i: int, cover: tuple) -> Iterator[tuple]:
        # cover: (closer, color, depth, outer cover) of the innermost open pair, the root at n + 1
        while i == cover[0]:
            if cover[3] is None:
                yield tuple(out)
                return
            i, cover = i + 1, cover[3]
        closer, cover_c, cover_d, _ = cover
        allowed = colors[i - 1]
        if not pairs_only:
            for c in allowed:
                out.append(((i,), c, cover_d + 1 if c == cover_c else 1))
                yield from walk(i + 1, cover)
                out.pop()
        for q in range(i + 1, closer, 2 if pairs_only else 1):  # pairs only: even gaps inside
            for c in allowed:
                d = cover_d + 1 if c == cover_c else 1
                if d < bound[c] and c in colors[q - 1]:
                    out.append(((i, q), c, d))
                    yield from walk(i + 1, (q, c, d, cover))
                    out.pop()

    yield from walk(1, (n + 1, None, 0, None))


def _first_return(n, colors, pairs_only, bound, single, close, mul, one, zero, cap=None):
    """Sum over the colored NC_{1,2}(n) partitions (NC_2(n) if pairs_only) of their block factors' product, by
    first-return recursion (Flajolet, Discrete Math. 32, 1980), for jacobi.nc_sum and _count_colored_nc12.  A block
    takes a color c allowed at both ends (colors[i-1] at position i), a pair only below depth bound[c].  At depth k
    a singleton {i} adds single[c][k-1][i], and a pair (i, q) close(c, k, i, q, the sum inside it or None).
    With `cap`, a depth per color past which the factors no longer depend on depth, each sum inside a pair of
    color e at depth r is memoised on (i, j, e, min(r, cap[e])), and the sum takes polynomial time."""

    def walk(i: int, j: int, e: Optional[str], r: int):  # i..j nested in a pair of color e at depth r
        if i > j:
            return one
        total = zero
        for c in colors[i - 1]:  # split on the block of position i
            k = r + 1 if c == e else 1
            if not pairs_only:  # a block that ends at j is not multiplied by the empty rest (the unit)
                x = single[c][k - 1][i]
                total = total + (x if i == j else mul(x, inside(i + 1, j, e, r)))
            if k < bound[c]:
                for q in range(i + 1, j + 1, 2 if pairs_only else 1):  # pairs only: even gaps inside
                    if c in colors[q - 1]:  # an adjacent pair closes over None, not over the empty inside
                        x = close(c, k, i, q, None if q == i + 1 else inside(i + 1, q - 1, c, k))
                        total = total + (x if q == j else mul(x, inside(q + 1, j, e, r)))
        return total

    if cap is None:  # chosen once per call, so nc_sum's plain recursion pays nothing for the memo
        inside = walk
    else:
        memo, cap = {}, {None: 0, **cap}  # the root's color None is at depth 0

        def inside(i: int, j: int, e: Optional[str], r: int):
            key = (i, j, e, r if r < cap[e] else cap[e])
            out = memo.get(key)
            if out is None:
                out = memo[key] = walk(i, j, e, r)
            return out

    out = inside(1, n, None, 0)
    del inside  # it refers to itself through walk's closure: a cycle that would hold its inputs (and the memo)
    return out


def _count_colored_nc12(
    n: int, colors: Sequence[Sequence[str]], pairs_only: bool = False, k: float = math.inf, l: float = math.inf
) -> int:
    """The number of partitions _colored_nc12 yields, by the first-return recursion with every block factor 1:
    no partition is reached, and the generator stays the oracle it is checked against."""
    if not _nonempty(n, pairs_only, k, l):
        return 0
    ones = dict.fromkeys((BLUE, RED), [[1] * (n + 1)] * n)  # a singleton counts 1 at every depth and position
    bound = {BLUE: k, RED: l}
    # past depth bound - 1 no pair of that color opens, and an unbounded color's count never depends on depth
    cap = {c: min(b - 1, n) if b < math.inf else 0 for c, b in bound.items()}
    return _first_return(n, colors, pairs_only, bound, ones,
                         lambda c, depth, i, q, inside: 1 if inside is None else inside, operator.mul, 1, 0, cap)


def enumerate_nc12(n: int, pairs_only: bool = False, k: float = math.inf) -> Iterator[Partition12]:
    """Yield NC_{1,2}(n) (or NC_2(n) if pairs_only) in canonical order; with k,
    only the partitions whose pair blocks all have depth < k (NC_{1,2}^k(n))."""
    _check_ints(n, k)
    for blocks in _colored_nc12(n, [(BLUE,)] * n, pairs_only, k):
        yield Partition12(n, tuple(blk for blk, _, _ in blocks))


def relative_depths(p: ColoredPartition) -> tuple[int, ...]:
    """Per-block depth with the two-color reset rule: count same-color pair
    covers walking outward, stopping at the first opposite-color cover."""
    out = []
    stack = []  # (closer, color, depth) of the pairs covering the current block, innermost last
    for blk, c in zip(p.base.blocks, p.color):
        while stack and stack[-1][0] < blk[0]:
            stack.pop()
        depth = stack[-1][2] + 1 if stack and stack[-1][1] == c else 1
        out.append(depth)
        if len(blk) == 2:
            stack.append((blk[1], c, depth))
    return tuple(out)


def enumerate_tcnc(
    n: int, pairs_only: bool = False, k: float = math.inf, l: float = math.inf
) -> Iterator[ColoredPartition]:
    """Yield TCNC_{1,2}(n) (or TCNC_2(n) if pairs_only); with k and l, only
    those whose blue pairs have relative depth < k and red pairs < l
    (TCNC_{1,2}^{k,l}(n))."""
    _check_ints(n, k, l)
    for blocks in _colored_nc12(n, [(BLUE, RED)] * n, pairs_only, k, l):
        base = Partition12(n, tuple(blk for blk, _, _ in blocks))
        yield ColoredPartition(base, tuple(c for _, c, _ in blocks))


def count_family(family: str, n: int, k: Optional[int] = None, l: Optional[int] = None) -> int:
    """Exact size of a partition family, by first-return recursion
    (_count_colored_nc12), without building any member."""
    one, two, inf = (BLUE,), (BLUE, RED), math.inf
    families = {  # family: (colors at a position, pairs only, k, l)
        "NC12": (one, False, inf, inf), "NC2": (one, True, inf, inf),
        "NC12^k": (one, False, k, k), "NC2^k": (one, True, k, k),
        "TCNC12": (two, False, inf, inf), "TCNC2": (two, True, inf, inf),
        "TCNC^{k,l}": (two, False, k, l), "TCNC2^{k,l}": (two, True, k, l),
    }
    if family not in families:
        raise ValueError(f"unknown family {family!r}")
    # a bounded family spells its bounds in its name, and takes no other
    missing = [name for name, bound in (("k", k), ("l", l)) if bound is None and name in family]
    if missing:
        raise ValueError(f"family {family} needs the depth bound {' and '.join(missing)}")
    unused = [name for name, bound in (("k", k), ("l", l)) if bound is not None and name not in family]
    if unused:
        raise ValueError(f"family {family} takes no depth bound {' and '.join(unused)}")
    colors, pairs_only, k, l = families[family]
    _check_ints(n, k, l)
    return _count_colored_nc12(n, [colors] * n, pairs_only, k, l)
