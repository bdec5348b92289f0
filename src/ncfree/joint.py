"""Joint moments of two freely independent Jacobi-Szego variables.

Two routes to the same numbers: the two-color non-crossing partition sum
with reset-depth parameter indexing, and a freeness recursion that only
uses the marginal moment engines plus the centering inclusion-exclusion
over alternating interval decompositions.  Also: free convolution at the
moment level, the degree-4 Jacobi-consistency test, and the closed-form
2x2 diagonal model.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Sequence

import numpy as np

from .algebra import Algebra, LinMap, element_to_json, json_loader, negligible, vec
from .jacobi import (  # MomentTable and params_moment_table live in jacobi and are re-exported here
    DegreeCapError,
    JacobiParams,
    MomentTable,
    _checked_coeffs,
    check_degree,
    moment,
    nc_sum,
    params_moment_table,
    word_from_json,
    word_to_json,
)
from .partitions import BLUE, RED, ColoredPartition, relative_depths


@dataclass(frozen=True)
class JointModel:
    """A blue and a red Jacobi parameter set over a common algebra."""

    params1: JacobiParams
    params2: JacobiParams

    def __post_init__(self):
        if self.params1.algebra != self.params2.algebra:
            raise ValueError("marginals must share an algebra")

    @property
    def algebra(self) -> Algebra:
        return self.params1.algebra

    @property
    def by_color(self) -> dict[str, JacobiParams]:
        return {BLUE: self.params1, RED: self.params2}


@dataclass(frozen=True)
class ColoredWord:
    """b_0 X_{e_1} b_1 ... X_{e_d} b_d with colors e_i in {blue, red}."""

    algebra: Algebra
    coeffs: tuple[np.ndarray, ...]
    colors: tuple[str, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.colors) + 1:
            raise ValueError("need one more coefficient than symbols")
        if any(c not in (BLUE, RED) for c in self.colors):
            raise ValueError("colors must be 'b' or 'r'")
        if not all(self.algebra.contains(np.asarray(c)) for c in self.coeffs):
            raise ValueError("coefficients must live in the algebra")

    @property
    def degree(self) -> int:
        return len(self.colors)


def colored_word(algebra: Algebra, coeffs: Sequence[np.ndarray], colors: Sequence[str]) -> ColoredWord:
    return ColoredWord(
        algebra,
        tuple(np.asarray(c, dtype=complex) for c in coeffs),
        tuple(colors),
    )


def e_pi(model: JointModel, w: ColoredWord, p: ColoredPartition) -> np.ndarray:
    """E_pi read off its definition, block by block: a block of color c at reset (relative) depth k
    inserts lambda_k of the c parameters if it is a singleton, and applies alpha_k across it if a pair."""
    if p.base.n != w.degree:
        raise ValueError(f"a partition of {p.base.n} positions on a word of degree {w.degree}")
    for blk, c in zip(p.base.blocks, p.color):
        for i in blk:
            if w.colors[i - 1] != c:
                raise ValueError(f"partition color at position {i} disagrees with the word")
    coeffs, params = _checked_coeffs(model.algebra, w.coeffs), model.by_color
    out, opened = coeffs[0], []  # opened: (product before the pair, its alpha, its closer), innermost last
    for blk, c, k in zip(p.base.blocks, p.color, relative_depths(p)):
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


def joint_moment(model: JointModel, w: ColoredWord) -> np.ndarray:
    """Sum of E_pi over the two-color non-crossing partitions whose coloring
    matches the word's color sequence."""
    return nc_sum(w.coeffs, [(c,) for c in w.colors], model.by_color)


# ---------------------------------------------------------------------------
# Freeness-recursion oracle
# ---------------------------------------------------------------------------

ORACLE_RUN_CAP = 8  # the cost grows steeply with the runs: on full d = 2, 8 take 0.1-0.2 s and 10 over 1 s


def joint_moment_free_recursion(model: JointModel, w: ColoredWord) -> np.ndarray:
    """Compute the joint moment from the marginal engines alone.

    Split the word into maximal monochromatic factors P_1 ... P_m.  Expanding
    each factor as (P_j - E P_j) + E P_j and using that alternating centered
    words have zero expectation gives

        E[P_1 ... P_m] = sum over nonempty S of (-1)^{|S|+1} E[word with the
                         factors in S replaced by their marginal expectations]

    and each replacement strictly lowers the degree, so the recursion closes
    at words without symbols; a one-factor word is its subset S = {P_1}.
    A word of more than ORACLE_RUN_CAP factors raises DegreeCapError.
    """
    check_degree(w.degree)
    runs = sum(1 for _ in groupby(w.colors))
    if runs > ORACLE_RUN_CAP:
        raise DegreeCapError(f"word has {runs} color runs; the freeness oracle is capped at {ORACLE_RUN_CAP}")
    one = model.algebra.unit()
    memo: dict = {}  # sub-words under (colors, coeffs), each run's marginal under (color, interior coeffs)

    def cached(colors, coeffs, compute):
        # exact bytes: words whose coefficients differ in any bit never share an entry
        key = colors, b"".join(np.asarray(c).tobytes() for c in coeffs)
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def rec(coeffs: tuple, colors: tuple) -> np.ndarray:
        if not colors:
            return coeffs[0]
        return cached(colors, coeffs, lambda: expand(coeffs, colors))

    def expand(coeffs, colors):
        runs, hi = [], 0  # (color, lo, hi, marginal expectation) of each run of positions lo..hi
        for c, grp in groupby(colors):
            lo, hi = hi + 1, hi + len(list(grp))
            interior = coeffs[lo:hi]  # the run reads X b_lo X ... b_{hi-1} X
            runs.append((c, lo, hi, cached(c, interior, lambda: moment(model.by_color[c], [one, *interior, one]))))
        total = 0
        for size in range(1, len(runs) + 1):
            for subset in combinations(range(len(runs)), size):
                new_coeffs: list[np.ndarray] = []
                new_colors: list[str] = []
                acc = coeffs[0]
                for j, (c, lo, hi, expect) in enumerate(runs):
                    if j in subset:
                        acc = acc @ expect @ coeffs[hi]
                    else:
                        for q in range(lo, hi + 1):
                            new_coeffs.append(acc)
                            new_colors.append(c)
                            acc = coeffs[q]
                new_coeffs.append(acc)
                total = total + (-1) ** (size + 1) * rec(tuple(new_coeffs), tuple(new_colors))
        return total

    out = rec(w.coeffs, w.colors)
    del rec, expand  # each refers to the other through its closure: a cycle that would hold the memo until a gc pass
    return out


# ---------------------------------------------------------------------------
# Free convolution at moment level
# ---------------------------------------------------------------------------


def free_convolve_word(model: JointModel, coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """mu1 boxplus mu2 evaluated at one word: the sum of joint moments over
    all 2^n color sequences (the expansion of (X_1 + X_2)^n), regrouped as a
    single enumeration of colored non-crossing partitions."""
    return nc_sum(coeffs, [(BLUE, RED)] * (len(coeffs) - 1), model.by_color)


def free_convolve_moments(model: JointModel, degree: int) -> MomentTable:
    return MomentTable(model.algebra, degree, lambda coeffs: free_convolve_word(model, coeffs))


# ---------------------------------------------------------------------------
# Degree-4 Jacobi consistency (the counterexample machinery)
# ---------------------------------------------------------------------------


def verify_jacobi_consistency(table: MomentTable) -> dict:
    """Decide whether a symmetric moment table fits a Jacobi-Szego law at
    degree 4.

    beta_1(b) := mu[X b X] is forced.  The degree-4 moments must satisfy
        mu[X b1 X b2 X b3 X] = beta_1(b1 beta_2(b2) b3) + beta_1(b1) b2 beta_1(b3)
    which is linear in the unknown map beta_2; we solve it in least squares
    over the algebra basis and report either the solved parameters or a
    coefficient triple witnessing infeasibility.  Odd moments are judged
    against powers of the degree-2 moments, the residual against its terms.
    """
    alg = table.algebra
    one = alg.unit()
    basis = alg.basis()  # (m, d, d): each moment grid below is one engine call over stacked words
    m, d = len(basis), alg.dim
    # row c reads the coordinate of basis[c] off a vectorization; the units of M_d outside B read zero
    coords = vec(basis).conj()
    beta1 = LinMap.from_dense(alg, vec(table([one, basis, one])).T @ coords)
    second = np.abs(beta1.dense)
    third = table([one, basis[:, None], basis[None, :], one])
    if not (negligible(table([one, one]), np.sqrt(second)) and negligible(third, second**1.5)):
        raise ValueError("consistency test requires a symmetric (odd moments zero) table")

    # beta_2(basis[j]) = sum_c x[c, j] basis[c] enters every triple (b1, basis[j], b3)
    # through the same map c -> beta_1(b1 basis[c] b3): one design matrix serves
    # every j, with one right-hand side per j.  The stacks are indexed (i, k, j) for the
    # triple (basis[i], basis[j], basis[k]); row p = i * m + k of a flattened stack is one pair.
    b1, b2, b3 = basis[:, None, None], basis[None, None, :], basis[None, :, None]
    fourth = table([one, b1, b2, b3, one]).reshape(m * m, m, d, d)
    known = (beta1(b1) @ b2 @ beta1(b3)).reshape(m * m, m, d, d)
    lhs = fourth - known

    def by_column(arr):
        # (pair (b1, b3), j or c, d, d) -> rows (pair, entry of vec), columns j or c
        return arr.reshape(m * m, m, d, d).transpose(0, 3, 2, 1).reshape(-1, m)

    design = by_column(beta1(b1 @ b2 @ b3))
    rhs = by_column(lhs)
    x, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    residuals = design @ x - rhs
    worst = float(np.max(np.abs(residuals)))

    if negligible(residuals, fourth, known):
        # beta_2 sends basis[j] to sum_c x[c, j] basis[c]
        beta2 = LinMap.from_dense(alg, vec(basis).T @ x @ coords)
        return {"consistent": True, "beta1": beta1, "beta2": beta2, "residual": worst}

    # point at the worst coefficient triple
    per_triple = np.abs(residuals).reshape(m * m, d * d, m).max(axis=1)
    p, j = np.unravel_index(np.argmax(per_triple), per_triple.shape)
    i, k = divmod(p, m)
    witness = {
        "b1": element_to_json(alg, basis[i]),
        "b2": element_to_json(alg, basis[j]),
        "b3": element_to_json(alg, basis[k]),
        "lhs_minus_known": element_to_json(alg, lhs[p, j]),
        "residual": float(per_triple.max()),
    }
    return {"consistent": False, "beta1": beta1, "beta2": None, "residual": worst, "witness": witness}


# ---------------------------------------------------------------------------
# The 2x2 diagonal model
# ---------------------------------------------------------------------------


def two_by_two_model_check(lam: float, gam: float, terms: int = 40) -> dict:
    """Closed forms versus moment series for the law of a = e_12 + e_21 over
    the diagonal subalgebra, and for its free square, at b = diag(lam, gam).

    Series: G_mu from the literal matrix model (diagonal part of powers of
    a b^{-1}); G_{mu+>mu} from the central-binomial moment formula
    M_2n = C(2n,n) (a b^{-1})^{2n}.  Closed forms: G_mu entrywise, and the
    square-root F-transform of the free square, cross-checked through the
    additivity of F^{-1} - id.
    """
    if lam == 0 or gam == 0:
        raise ValueError("lambda and gamma must be nonzero")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    prod_lg = lam * gam
    if abs(prod_lg) <= 4:
        raise ValueError("series requires |1/(lambda*gamma)| < 1/4")

    a = np.array([[0, 1], [1, 0]], dtype=complex)
    big = np.array([lam, gam], dtype=complex)  # b, and below every element of D_2, as its two diagonal entries
    binv = 1 / big

    # G_mu from the matrix model, G_{mu boxplus mu} from the central-binomial series
    step = np.diag((a * binv) @ (a * binv))  # (a b^-1)^2, diagonal: it advances two moment degrees
    series = binv * step ** np.arange(terms)[:, None]  # term n: b^-1 (a b^-1)^(2n)
    g_series = series.sum(axis=0)
    # C(2n, n) by the exact step C(2n + 2, n + 1) = C(2n, n) (2n + 1)(2n + 2) / (n + 1)^2 = C(2n, n) (4n + 2) / (n + 1)
    central, c = [], 1
    for n in range(terms):
        central.append(float(c))
        c = c * (4 * n + 2) // (n + 1)
    g_conv_series = np.tensordot(central, series, axes=1)
    g_closed = 1 / (big - binv[::-1])  # (1 / (lam - 1/gam), 1 / (gam - 1/lam))

    # F_{mu boxplus mu} closed form, principal branch with the asymptotic sign
    def branch_sqrt(val, ref):
        s = cmath.sqrt(val)
        s = s.real if s.imag == 0 else s  # a real root stays real, as with np.emath.sqrt, so -s keeps a +0j
        return s if abs(s - ref) <= abs(s + ref) else -s

    def f_conv(l, g):
        return np.array([branch_sqrt(l**2 - 4 * l / g, l), branch_sqrt(g**2 - 4 * g / l, g)], dtype=complex)

    f_conv_closed = f_conv(lam, gam)
    g_conv_closed = 1 / f_conv_closed

    # Subordination cross-check: F_mu(w) = diag(x - 1/y, y - 1/x) for w = diag(x, y), so F_mu^{-1}(b) is
    # b s with s^2 - s = 1/(lam gam), the root that tends to b; real since |lam gam| > 4.
    # Additivity of F^{-1} - id gives F^{-1}_{conv}(b) = 2 F^{-1}_mu(b) - b.
    f_inv_mu = big * (1 + cmath.sqrt(1 + 4 / prod_lg)) / 2
    f_inv_conv = 2 * f_inv_mu - big
    # evaluate the closed-form F_{mu boxplus mu} at that point: should return b
    f_at_inv = f_conv(*f_inv_conv)
    subordination_residual = float(np.max(np.abs(f_at_inv - big)))

    return {
        "lambda": lam,
        "gamma": gam,
        "terms": terms,
        "g_mu_closed": np.diag(g_closed),
        "g_mu_series": np.diag(g_series),
        "g_mu_diff": float(np.max(np.abs(g_series - g_closed))),
        "f_conv_closed": np.diag(f_conv_closed),
        "f_mu_inverse": np.diag(f_inv_mu),
        "g_conv_closed": np.diag(g_conv_closed),
        "g_conv_series": np.diag(g_conv_series),
        "g_conv_diff": float(np.max(np.abs(g_conv_series - g_conv_closed))),
        "subordination_residual": subordination_residual,
    }


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def colored_word_to_json(w: ColoredWord) -> dict:
    return {**word_to_json(w.algebra, w.coeffs), "colors": [1 if c == BLUE else 2 for c in w.colors]}


@json_loader
def colored_word_from_json(obj) -> ColoredWord:
    alg, coeffs = word_from_json(obj)
    if not isinstance(obj["colors"], list):  # a string or an object would be read key by key
        raise ValueError(f"colors must be a JSON list, got {obj['colors']!r}")
    key = {1: BLUE, 2: RED, BLUE: BLUE, RED: RED}
    # true and 2.0 hash like 1 and 2, so the type is checked before the lookup
    bad = [c for c in obj["colors"] if type(c) not in (int, str) or c not in key]
    if bad:
        raise ValueError(f"colors must be 1 (blue) or 2 (red), got {bad[0]!r}")
    return colored_word(alg, coeffs, [key[c] for c in obj["colors"]])
