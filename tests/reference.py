"""Reference code the tests check the library against.

Each helper here is a slow, direct reading of a definition; no engine, CLI
command or script calls any of them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ncfree.algebra import Algebra, LinMap, _is_psd, unit_matrix, vec
from ncfree.partitions import BLUE, RED, ColoredPartition, Partition12, relative_depths
from ncfree.scalar import nu_k


def block_depths(p: Partition12 | ColoredPartition) -> tuple[int, ...]:
    """Absolute depth per block: 1 + number of pair blocks strictly covering it,
    counted directly, with no use of the colors."""
    base = p.base if isinstance(p, ColoredPartition) else p
    pairs = [blk for blk in base.blocks if len(blk) == 2]
    return tuple(1 + sum(a < blk[0] and blk[-1] < b for a, b in pairs) for blk in base.blocks)


def tcnc_depth_ok(cp: ColoredPartition, k: int, l: int) -> bool:
    """Blue pairs have relative depth < k, red pairs < l.

    Equivalent to the chain condition: any same-color nested chain of k
    (resp. l) pairs is split by an opposite-color pair between its
    outermost and innermost elements.
    """
    bound = {BLUE: k, RED: l}
    return all(
        d < bound[c]
        for blk, c, d in zip(cp.base.blocks, cp.color, relative_depths(cp))
        if len(blk) == 2
    )


def element_color(cp: ColoredPartition, i: int) -> str:
    """The color of the block that holds position i."""
    for blk, c in zip(cp.base.blocks, cp.color):
        if i in blk:
            return c
    raise ValueError(f"{i} not in partition")


def linmap_from_action(algebra: Algebra, action: Callable[[np.ndarray], np.ndarray]) -> LinMap:
    """The linear map whose dense matrix has vec(action(e_ij)) as its column for e_ij."""
    d = algebra.dim
    dense = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            col = j * d + i  # column-major index of e_ij
            dense[:, col] = vec(np.asarray(action(unit_matrix(d, i, j)), dtype=complex))
    return LinMap(algebra, dense)


def gram_psd_check(grid: Sequence[Sequence[np.ndarray]]) -> bool:
    """Assemble the block matrix [g_ij] and test positive semidefiniteness."""
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("grid must be square")
    return _is_psd(np.block([[np.asarray(g, dtype=complex) for g in row] for row in grid]))


def g_recursion_check(n: int, z: complex) -> float:
    """|G_{nu_n}(z) - 1/(z - G_{nu_{n-1}}(z))| from the atomic sums."""
    if n <= 1:
        raise ValueError("n must be > 1")
    g_n = nu_k(n).cauchy(z)
    g_prev = nu_k(n - 1).cauchy(z)
    return abs(g_n - 1 / (z - g_prev))
