"""Non-crossing partitions with singleton/pair blocks, one- and two-color,
including the depth-restricted families used by the moment engines.

Partitions of {1..n} are stored canonically: blocks sorted by minimum
element.  Colors are 'b' (blue) and 'r' (red).  All counts are exact
python integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

BLUE = "b"
RED = "r"


@dataclass(frozen=True)
class Partition12:
    """A non-crossing partition of {1..n} into singletons and pairs."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for blk in self.blocks:
            if len(blk) not in (1, 2) or list(blk) != sorted(blk):
                raise ValueError(f"bad block {blk}")
            seen.update(blk)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks do not cover {1..n}")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks not in canonical order")
        for (a, *restb), (c, *restd) in itertools.combinations(self.blocks, 2):
            if restb and restd:
                b, d = restb[0], restd[0]
                if a < c < b < d or c < a < d < b:
                    raise ValueError(f"crossing blocks ({a},{b}), ({c},{d})")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(blk for blk in self.blocks if len(blk) == 2)

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

    def element_color(self, i: int) -> str:
        for blk, c in zip(self.base.blocks, self.color):
            if i in blk:
                return c
        raise ValueError(f"{i} not in partition")

    def __str__(self):
        return " ".join(
            "(" + ",".join(map(str, blk)) + "):" + c
            for blk, c in zip(self.base.blocks, self.color)
        )


def _nc12_blocks(elems: tuple[int, ...], pairs_only: bool) -> Iterator[list]:
    """All non-crossing singleton/pair partitions of an ordered tuple."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    if not pairs_only:
        for tail in _nc12_blocks(rest, pairs_only):
            yield [(first,)] + tail
    for j, partner in enumerate(rest):
        inside, outside = rest[:j], rest[j + 1 :]
        if pairs_only and (len(inside) % 2 or len(outside) % 2):
            continue
        for pin in _nc12_blocks(inside, pairs_only):
            for pout in _nc12_blocks(outside, pairs_only):
                yield [(first, partner)] + pin + pout


def enumerate_nc12(n: int, pairs_only: bool = False) -> Iterator[Partition12]:
    """Yield NC_{1,2}(n) (or NC_2(n) if pairs_only), canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if pairs_only and n % 2:
        return
    for blocks in _nc12_blocks(tuple(range(1, n + 1)), pairs_only):
        yield Partition12(n, tuple(blocks))


def colorings(p: Partition12, colors: Sequence[Sequence[str]]) -> Iterator[ColoredPartition]:
    """Every coloring of p's blocks in which each block takes a color allowed
    at both of its ends; colors[i-1] lists the colors allowed at position i."""
    choices = [[c for c in colors[blk[0] - 1] if c in colors[blk[-1] - 1]] for blk in p.blocks]
    for coloring in itertools.product(*choices):
        yield ColoredPartition(p, coloring)


def block_depths(p: Partition12 | ColoredPartition) -> tuple[int, ...]:
    """Absolute depth per block: 1 + number of pair blocks strictly covering it."""
    base = p.base if isinstance(p, ColoredPartition) else p
    return relative_depths(ColoredPartition(base, (BLUE,) * len(base.blocks)))


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


def enumerate_nc12_depth(n: int, k: int, pairs_only: bool = False) -> Iterator[Partition12]:
    """Yield NC_{1,2}^k(n): partitions whose pair blocks all have depth < k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for p in enumerate_nc12(n, pairs_only):
        if tcnc_depth_ok(ColoredPartition(p, (BLUE,) * len(p.blocks)), k, k):
            yield p


def enumerate_tcnc(n: int, pairs_only: bool = False) -> Iterator[ColoredPartition]:
    """Yield TCNC_{1,2}(n) (or TCNC_2(n) if pairs_only)."""
    for p in enumerate_nc12(n, pairs_only):
        yield from colorings(p, [(BLUE, RED)] * n)


def tcnc_depth_ok(cp: ColoredPartition, k: int, l: int) -> bool:
    """Blue pairs have relative depth < k, red pairs < l.

    Equivalent to the chain condition: any same-color nested chain of k
    (resp. l) pairs is split by an opposite-color pair between its
    outermost and innermost elements.
    """
    rel = relative_depths(cp)
    bound = {BLUE: k, RED: l}
    return all(
        d < bound[c]
        for blk, c, d in zip(cp.base.blocks, cp.color, rel)
        if len(blk) == 2
    )


def enumerate_tcnc_depth(
    n: int, k: int, l: int, pairs_only: bool = False
) -> Iterator[ColoredPartition]:
    """Yield TCNC_{1,2}^{k,l}(n) (or TCNC_2^{k,l}(n) if pairs_only)."""
    if k < 1 or l < 1:
        raise ValueError("depth bounds must be >= 1")
    for cp in enumerate_tcnc(n, pairs_only):
        if tcnc_depth_ok(cp, k, l):
            yield cp


def odd_compositions(p: int, q: int) -> Iterator[tuple[int, ...]]:
    """All ordered q-tuples of odd positive integers summing to p."""
    if q == 0:
        if p == 0:
            yield ()
        return
    if p < q or (p - q) % 2:
        return
    for first in range(1, p - q + 2, 2):
        for rest in odd_compositions(p - first, q - 1):
            yield (first,) + rest


def count_family(family: str, n: int, k: Optional[int] = None, l: Optional[int] = None) -> int:
    """Exact size of a partition family, by enumeration."""
    families = {
        "NC12": lambda: enumerate_nc12(n),
        "NC2": lambda: enumerate_nc12(n, pairs_only=True),
        "NC12^k": lambda: enumerate_nc12_depth(n, k),
        "NC2^k": lambda: enumerate_nc12_depth(n, k, pairs_only=True),
        "TCNC12": lambda: enumerate_tcnc(n),
        "TCNC2": lambda: enumerate_tcnc(n, pairs_only=True),
        "TCNC^{k,l}": lambda: enumerate_tcnc_depth(n, k, l),
        "TCNC2^{k,l}": lambda: enumerate_tcnc_depth(n, k, l, pairs_only=True),
    }
    if family not in families:
        raise ValueError(f"unknown family {family!r}")
    return sum(1 for _ in families[family]())
