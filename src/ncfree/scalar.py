"""Scalar machinery: the atomic measures nu_k, Chebyshev-ratio Cauchy
transforms, moment/free-cumulant transforms, scalar free convolution, the
recursive two-color pairing counts, and the free binomial series.

All counting paths and the subordination identity run in exact integer/rational
arithmetic; floating point appears only in the atomic measures nu_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, cos, pi
from operator import mul
from typing import Sequence

import numpy as np

from .algebra import negligible
from .partitions import BLUE, _colored_nc12


# ---------------------------------------------------------------------------
# Chebyshev polynomials (monic normalization: U_1(z) = z, U_k(2cos t) =
# sin((k+1)t)/sin t) and the measures nu_k
# ---------------------------------------------------------------------------


def chebyshev_u_coeffs(k: int) -> list[int]:
    """Integer coefficients of U_k, lowest degree first."""
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = [1], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + cur
        nxt = [a - b for a, b in zip(nxt, prev + [0] * (len(nxt) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def chebyshev_u(k: int, z) -> complex:
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = 1.0 + 0j, complex(z)
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, z * cur - prev
    return cur


@dataclass(frozen=True)
class AtomicMeasure:
    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must pair up")
        total = sum(self.weights)
        if not negligible(total - 1, total, 1):
            raise ValueError("weights must sum to 1")
        if not negligible(np.minimum(self.weights, 0), self.weights):
            raise ValueError("weights must be nonnegative")

    def cauchy(self, z: complex) -> complex:
        if any(negligible(z - x, z, x) for x in self.atoms):
            raise ValueError("evaluation point too close to the spectrum")
        return sum(a / (z - x) for x, a in zip(self.atoms, self.weights))

    def moment(self, n: int) -> float:
        return sum(a * x**n for x, a in zip(self.atoms, self.weights))


def nu_k(k: int) -> AtomicMeasure:
    """nu_1 = delta_0; otherwise k atoms at the zeros of U_{k} with the
    sine-squared weights."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return AtomicMeasure((0.0,), (1.0,))
    atoms = tuple(2 * cos(j * pi / (k + 1)) for j in range(1, k + 1))
    weights = tuple((1 - cos(2 * j * pi / (k + 1))) / (k + 1) for j in range(1, k + 1))
    return AtomicMeasure(atoms, weights)


def nu_moments(k: int, degree: int) -> list[int]:
    """Exact integer moments of nu_k through `degree`: the top-left entries of X_k^n,
    n = 0..degree, for the k x k tridiagonal 0/1 matrix X_k, read off one walk.
    A closed walk of `degree` steps from the top never gets below level degree // 2, so the walk
    keeps levels 0..degree // 2 only."""
    if k < 1 or degree < 0:
        raise ValueError("k >= 1 and degree >= 0 required")
    k = min(k, degree // 2 + 1)
    col = [1] + [0] * (k - 1)  # first column of X_k^n
    out = [1]
    for _ in range(degree):
        col = [(col[i - 1] if i else 0) + (col[i + 1] if i + 1 < k else 0) for i in range(k)]
        out.append(col[0])
    return out


def tridiagonal_moment(k: int, n: int) -> int:
    """Top-left entry of X_k^n for the k x k tridiagonal 0/1 matrix; exact."""
    if k < 1 or n < 0:
        raise ValueError("k >= 1 and n >= 0 required")
    return nu_moments(k, n)[-1]


def _poly_series_div(num: list[Fraction], den: list[Fraction], degree: int) -> list[Fraction]:
    """Power-series quotient num/den through order `degree` (den[0] != 0)."""
    num = num + [Fraction(0)] * (degree + 1 - len(num))
    den = den + [Fraction(0)] * (degree + 1 - len(den))
    inv0 = Fraction(1) / den[0]
    out: list[Fraction] = []
    for n in range(degree + 1):
        acc = num[n] - sum(den[j] * out[n - j] for j in range(1, n + 1))
        out.append(acc * inv0)
    return out


def chebyshev_ratio_moments(k: int, degree: int) -> list[Fraction]:
    """Moments of nu_k read off the expansion of U_{k-1}/U_k at infinity.

    With w = 1/z, U_{k-1}(z)/U_k(z) = w * a(w)/b(w) where a, b are the
    reversed coefficient polynomials; the w^n coefficient of a/b is m_n.
    """
    ck1 = chebyshev_u_coeffs(k - 1)
    ck = chebyshev_u_coeffs(k)
    # reversed: a(w) = w^{k-1} U_{k-1}(1/w), b(w) = w^k U_k(1/w)
    a = [Fraction(c) for c in reversed(ck1)]
    b = [Fraction(c) for c in reversed(ck)]
    return _poly_series_div(a, b, degree)


# ---------------------------------------------------------------------------
# Moment <-> free cumulant transforms and scalar free convolution
# ---------------------------------------------------------------------------


def _conv(a: Sequence, b: Sequence, degree: int) -> list:
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(degree + 1)]  # a_j b_{n-j}, j = 0..n


def _power_coefficients(m: Sequence, n_max: int):
    """For n = 1..n_max, yield the coefficients [z^{n-s}] M(z)^s, s = 1..n, of M(z) = sum_j m_j z^j.
    Step n grows each M^s by that one coefficient and reads m_0..m_{n-1} only, so a caller
    may append m_n to `m` after it."""
    powers = [[1] + [0] * n_max]  # powers[s]: the coefficients of M^s known so far
    for n in range(1, n_max + 1):
        powers.append([])
        for s in range(1, n + 1):
            powers[s].append(sum(map(mul, powers[s - 1][: n - s + 1], m[n - s :: -1])))
        yield [powers[s][n - s] for s in range(1, n + 1)]


def moments_to_cumulants(m: Sequence) -> list:
    """kappa_1..kappa_N from m_0=1, m_1..m_N via
    m_n = sum_s kappa_s * [coefficient of z^{n-s} in M(z)^s]."""
    if not m or m[0] != 1:
        raise ValueError("m_0 must be 1")
    kappa = []
    for n, coeffs in enumerate(_power_coefficients(m, len(m) - 1), 1):
        acc = m[n]  # the s = n coefficient is m_0^n = 1
        for ks, c in zip(kappa, coeffs):
            acc = acc - ks * c
        kappa.append(acc)
    return kappa


def cumulants_to_moments(kappa: Sequence) -> list:
    """Inverse transform: rebuild m_0..m_N from kappa_1..kappa_N."""
    if not kappa:
        raise ValueError("need kappa_1 at least")
    zero = kappa[0] * 0
    m = [zero + 1]
    for coeffs in _power_coefficients(m, len(kappa)):
        m.append(sum((ks * c for ks, c in zip(kappa, coeffs)), zero))
    return m


def free_convolve_scalar(m1: Sequence, m2: Sequence, degree: int) -> list:
    """Moments of the free convolution: add free cumulants, convert back."""
    if degree < 0 or len(m1) <= degree or len(m2) <= degree:
        raise ValueError("need a degree >= 0 and moments through it")
    k1 = moments_to_cumulants(list(m1[: degree + 1]))
    k2 = moments_to_cumulants(list(m2[: degree + 1]))
    if degree == 0:  # no cumulants: the convolution has mass m_0 = 1
        return [m1[0]]
    return cumulants_to_moments([a + b for a, b in zip(k1, k2)])


# ---------------------------------------------------------------------------
# Cauchy-transform identities
# ---------------------------------------------------------------------------


def subordination_residual(m_prev: Sequence[int], m_conv: Sequence[int], degree: int) -> list[int]:
    """Coefficients of Mc(s) (1 - w^2 M) - (1 + w^2 M) through w^degree, where M and Mc
    are the moment series of nu_{n-1} and nu_n boxplus nu_n in w = 1/z and s = w / (1 + w^2 M).

    They all vanish exactly when F_{nu_n boxplus nu_n}(z + G_{nu_{n-1}}(z)) = z - G_{nu_{n-1}}(z)
    holds as Laurent series in w: z + G = 1/s and z - G = (1 - w^2 M)/w.  Integer moments give
    integer coefficients, since 1 + w^2 M starts with 1."""
    if degree < 0 or len(m_prev) < degree - 1 or len(m_conv) <= degree:
        raise ValueError("need a degree >= 0 and moments through it")
    w2m = ([0, 0] + list(m_prev))[: degree + 1]
    plus, minus = [1] + w2m[1:], [1] + [-c for c in w2m[1:]]
    s = [0] * (degree + 1)
    for k in range(1, degree + 1):
        s[k] = int(k == 1) - sum(plus[j] * s[k - j] for j in range(2, k + 1))
    comp = [0] * (degree + 1)  # Mc(s) by Horner's rule; s = w + O(w^3), so Mc's first degree + 1 moments do
    for c in reversed(m_conv[: degree + 1]):
        comp = _conv(comp, s, degree)
        comp[0] += c
    return [a - b for a, b in zip(_conv(comp, minus, degree), plus)]


def subordination_check(n: int, degree: int = 24) -> bool:
    """Whether F_{nu_n boxplus nu_n}(z + G_{nu_{n-1}}(z)) = z - G_{nu_{n-1}}(z) holds exactly
    through w^degree (`subordination_residual`)."""
    if n <= 1:
        raise ValueError("n must be > 1")
    m_nu = nu_moments(n, degree)
    return not any(subordination_residual(nu_moments(n - 1, degree), free_convolve_scalar(m_nu, m_nu, degree), degree))


# ---------------------------------------------------------------------------
# The recursive pairing counts M^{(k)}_{2n}
# ---------------------------------------------------------------------------


def tcnc_recursion(k: int, n_max: int, trace: bool = False):
    """Even moments M^{(k)}_{2n} of nu_k boxplus nu_k for n = 1..n_max, via
    the subordination recursion M_{2n} = S_{n,k} - T_{n,k}; exact integers.

    S and T sum products m_{part-1} of nu_{k-1} moments over compositions of
    p into q odd parts; that sum is powers[q][p], the z^p coefficient of
    O(z)^q with O(z) = sum_{j odd} m_{j-1} z^j.

    With trace=True, returns (values, [(n, S, T), ...]).
    """
    if k < 2 or n_max < 1:
        raise ValueError("k >= 2 and n_max >= 1 required")
    m = nu_moments(k - 1, 2 * n_max)
    odd = [m[j - 1] if j % 2 else 0 for j in range(2 * n_max + 1)]
    powers = [[1] + [0] * (2 * n_max)]
    for _ in range(n_max):
        powers.append(_conv(powers[-1], odd, 2 * n_max))
    log = []
    out = []
    for n in range(1, n_max + 1):
        s = 2 * sum(comb(2 * n - 1, i) * powers[2 * n - i][i] for i in range(n, 2 * n))
        t = 0
        for j in range(1, n - 1):
            h = n - j
            inner = sum(
                comb(2 * h - 1, p) * (powers[2 * h - p - 1][p + 1] - powers[2 * h - p][p])
                for p in range(h - 1, 2 * h)
            )
            t += out[j - 1] * inner  # out[j - 1] = M_{2j}
        out.append(s - t)
        log.append((n, s, t))
    return (out, log) if trace else out


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def tcnc_limit_row(n_max: int) -> list[int]:
    """Large-k limit 2^n * Catalan(n): the free square of the semicircle law."""
    return [2**n * catalan(n) for n in range(1, n_max + 1)]


def tcnc_table(k_max: int, n_max: int) -> list[tuple[str, list[int]]]:
    """Rows (label, [M_2, M_4, ...]) for k = 2..k_max, plus a stabilized
    "k>K" row when the next two rows beyond k_max coincide."""
    rows = [(str(k), tcnc_recursion(k, n_max)) for k in range(2, k_max + 1)]
    nxt = tcnc_recursion(k_max + 1, n_max)
    if nxt == tcnc_recursion(k_max + 2, n_max):
        rows.append((f"k>{k_max}", nxt))
    return rows


# ---------------------------------------------------------------------------
# Free binomial moments, three ways
# ---------------------------------------------------------------------------


def free_binomial_closed(n: int, t) -> Fraction:
    """Closed formula for m_n(t)."""
    t = Fraction(t)
    if t < 1 or n < 0:
        raise ValueError("t >= 1 and n >= 0 required")
    if n == 0:
        return Fraction(1)
    acc = t ** (2 * n)
    for j in range(1, n + 1):
        acc -= t * Fraction(comb(2 * j, j), 2 * (2 * j - 1)) * (t - 1) ** j * t ** (2 * (n - j))
    return acc


def free_binomial_series(t, degree: int) -> list[Fraction]:
    """Coefficients of (t - 2 - t*sqrt(1 - 4(t-1)z^2)) / (2(t^2 z^2 - 1))
    about z = 0, exact; odd coefficients vanish."""
    t = Fraction(t)
    if t < 1 or not 0 <= degree <= 40:
        raise ValueError("t >= 1 and a series degree in 0..40 required")
    n_half = degree // 2 + 1
    # sqrt(1+u) = sum binom(1/2, j) u^j with u = -4(t-1) z^2
    sqrt_even = []
    coeff = Fraction(1)
    for j in range(n_half):
        sqrt_even.append(coeff * (-4 * (t - 1)) ** j)
        coeff = coeff * (Fraction(1, 2) - j) / (j + 1)
    numer = [Fraction(t - 2) - t * sqrt_even[0]] + [-t * c for c in sqrt_even[1:]]
    # in u = z^2 the denominator is 2(t^2 u - 1)
    even = _poly_series_div(numer, [Fraction(-2), 2 * t * t], n_half - 1)
    out = []
    for d in range(degree + 1):
        out.append(even[d // 2] if d % 2 == 0 else Fraction(0))
    return out


def free_binomial_enumeration(n: int, t) -> Fraction:
    """sum over pairings of 2n of t^{#outer pairs} (t-1)^{#inner pairs}."""
    t = Fraction(t)
    total = Fraction(0)
    for blocks in _colored_nc12(2 * n, [(BLUE,)] * (2 * n), pairs_only=True):
        outer = sum(1 for _, _, depth in blocks if depth == 1)
        total += t**outer * (t - 1) ** (n - outer)
    return total


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def table_to_tsv(rows: list[tuple[str, list[int]]]) -> str:
    n_max = len(rows[0][1])
    header = "k\t" + "\t".join(f"n={2 * (i + 1)}" for i in range(n_max))
    lines = [header]
    for label, vals in rows:
        lines.append(label + "\t" + "\t".join(str(v) for v in vals))
    return "\n".join(lines) + "\n"
