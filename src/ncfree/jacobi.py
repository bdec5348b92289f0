"""The B-valued Jacobi-Szego distribution engine.

A distribution is described by two eventually-constant parameter sequences: self-adjoint algebra elements lambda_i
and linear self-maps alpha_i (completely positive in the positive case, arbitrary in the algebraic one).  Moments are
computed two independent ways from the same arguments: nc_sum sums over non-crossing singleton/pair partitions with
depth-indexed parameters (on partitions' first-return recursion, which also counts the families), and its oracle
_fock applies ladder operators on a free product of Fock modules.  The parameters' continued fraction is one level
loop, _cf_at, at points of M_m(B): cf_approximant evaluates it at b, and cf_series at the nilpotent point S (x) b.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .algebra import (
    Algebra,
    LinMap,
    _is_psd,
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    is_self_adjoint,
    json_loader,
    linmap_from_json,
    linmap_to_json,
    negligible,
    unvec,
    vec,
)
from .partitions import BLUE, DegreeCapError, _first_return, check_degree
from .scalar import free_binomial_closed as free_binomial_moment

@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameters: head sequences followed by a constant tail."""

    algebra: Algebra
    head_lambda: tuple[np.ndarray, ...]
    head_alpha: tuple[LinMap, ...]
    tail_lambda: np.ndarray
    tail_alpha: LinMap
    positive: bool = False

    def __post_init__(self):
        if type(self.positive) is not bool:  # a string such as "false" would read as true
            raise ValueError(f"positive must be true or false, got {self.positive!r}")
        object.__setattr__(self, "head_alpha", tuple(self.head_alpha))  # the transforms extend the heads as tuples
        alg = self.algebra
        lams = [np.asarray(lam) for lam in (*self.head_lambda, self.tail_lambda)]
        # the lambdas, and in the positive case the alphas' Choi matrices, are tested as one stack each, every
        # matrix judged against itself; the lambdas, each of dtype bool, int, float or complex, are then kept as the
        # complex arrays every engine reads
        numeric = all(lam.shape == (alg.dim,) * 2 and lam.dtype.kind in "biufc" for lam in lams)
        if not (numeric and alg.contains(np.array(lams))):
            raise ValueError("lambda entries must live in the algebra")
        lams = [lam.astype(complex, copy=False) for lam in lams]
        object.__setattr__(self, "head_lambda", tuple(lams[:-1]))
        object.__setattr__(self, "tail_lambda", lams[-1])
        for a in (*self.head_alpha, self.tail_alpha):
            if a.algebra != alg:
                raise ValueError("alpha maps must act on the same algebra")
            if alg.kind == "diagonal" and not a.preserves_diagonal():
                raise ValueError("alpha maps must send the algebra into itself")
        if self.positive:
            if not is_self_adjoint(np.array(lams)):
                raise ValueError("positive flag requires self-adjoint lambdas")
            if not _is_psd(np.array([a.choi() for a in (*self.head_alpha, self.tail_alpha)])):
                raise ValueError("positive flag requires completely positive alphas")

    def lam(self, i: int) -> np.ndarray:
        if i < 1:
            raise IndexError("Jacobi parameters are 1-indexed")
        if i <= len(self.head_lambda):
            return self.head_lambda[i - 1]
        return self.tail_lambda

    def alpha(self, i: int) -> LinMap:
        if i < 1:
            raise IndexError("Jacobi parameters are 1-indexed")
        if i <= len(self.head_alpha):
            return self.head_alpha[i - 1]
        return self.tail_alpha

    def isclose(self, other: "JacobiParams") -> bool:
        """Same sequences through the first level past both heads, lambdas
        judged against the lambdas of both sets and alphas against the alphas."""
        if self.algebra != other.algebra:
            return False
        heads = (self.head_lambda, self.head_alpha, other.head_lambda, other.head_alpha)
        levels = range(1, max(map(len, heads)) + 2)
        lams = [[p.lam(i) for i in levels] for p in (self, other)]
        alphas = [[p.alpha(i).dense for i in levels] for p in (self, other)]
        return negligible(np.subtract(*lams), *lams) and negligible(np.subtract(*alphas), *alphas)


def scalar_jacobi(
    head_lambda: Sequence[complex] = (),
    head_alpha: Sequence[complex] = (),
    tail_lambda: complex = 0.0,
    tail_alpha: complex = 0.0,
) -> JacobiParams:
    """Convenience constructor for the d=1 scalar specialization."""
    alg = Algebra("full", 1)
    one = np.eye(1, dtype=complex)

    def elem(z):
        return complex(z) * one

    def mp(z):
        return LinMap.from_dense(alg, complex(z) * one)

    return JacobiParams(
        alg,
        tuple(elem(z) for z in head_lambda),
        tuple(mp(z) for z in head_alpha),
        elem(tail_lambda),
        mp(tail_alpha),
    )


# ---------------------------------------------------------------------------
# Partition-sum moments
# ---------------------------------------------------------------------------


def _tables(coeffs: np.ndarray, params: Mapping[str, JacobiParams]) -> tuple[dict, dict, Callable]:
    """Per color c and depth k = 1..n: lam_b[c][k-1][i] = lambda_k @ b_i, and alpha_b[c][k-1][q] sends
    the row-major `ravel(X)` to `ravel(alpha_k(X) @ b_q)`.  Only the depths a degree-n word reaches are formed (a
    singleton at depth k sits inside k - 1 pairs, so it needs 2k - 1 positions, and a pair 2k); past those, and past
    a head, every depth shares the last entry formed.  Entries carry the batch shape of `coeffs`; `flat` makes X the
    column alpha_b acts on, a vector for one word."""
    n, batch, d = len(coeffs) - 1, coeffs.shape[1:-2], coeffs.shape[-1]
    shape, lam_b, alpha_b = (n + 1, *batch, d * d, d * d), {}, {}
    for c, par in params.items():
        lam_b[c] = [list(par.lam(k) @ coeffs) for k in range(1, min((n + 1) // 2, len(par.head_lambda) + 1) + 1)]
        # the dense form indexes entry (i, j) at j*d + i; the row-major one at i*d + j
        alpha_b[c] = [np.einsum("liyx,q...lj->q...ijxy", par.alpha(k).dense.reshape(d, d, d, d), coeffs).reshape(shape)
                      for k in range(1, min(n // 2, len(par.head_alpha) + 1) + 1)]
        for table in (lam_b[c], alpha_b[c]):
            table += table[-1:] * (n - len(table))
    return lam_b, alpha_b, (lambda x: x.reshape(*batch, -1, 1)) if batch else np.ndarray.ravel


def _checked_coeffs(algebra: Algebra, coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """The coefficients b_0..b_n (n >= 0) stacked as one complex array (n + 1, ..., d, d): each b_i may
    carry a leading batch shape, broadcast with the others, and the stack is checked to live in B at once."""
    if len(coeffs) == 0:
        raise ValueError("a word needs at least one coefficient")
    coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
    shapes = {c.shape for c in coeffs}
    if any(s[-2:] != (algebra.dim,) * 2 for s in shapes):  # broadcasting may stretch batch axes only
        raise ValueError("coefficients must live in the algebra")
    stack = np.array(coeffs if len(shapes) == 1 else np.broadcast_arrays(*coeffs))
    if not algebra.contains(stack):
        raise ValueError("coefficients must live in the algebra")
    return stack


def _checked_element(algebra: Algebra, b: np.ndarray) -> np.ndarray:
    """The one gate of a lone element b, which a transform, a named family or a continued fraction computes with
    before any law holds it: one (d, d) matrix of the algebra, without a batch axis, as a complex array."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (algebra.dim,) * 2 or not algebra.contains(b):
        raise ValueError(f"an element must be one {algebra.dim} x {algebra.dim} matrix, without a batch axis, and"
                         " live in the algebra")
    return b


def _checked_word(coeffs, colors, params) -> tuple[int, np.ndarray]:
    """nc_sum's and _fock's entry check: the degree n, the coefficients, and n sets of distinct colours of `params`."""
    n = len(coeffs) - 1
    check_degree(n)
    coeffs = _checked_coeffs(next(iter(params.values())).algebra, coeffs)
    try:  # each distinct set once; a colour that cannot be hashed (a list, say) is no colour of params
        bad = len(colors) != n or any(len(set(cs)) < len(cs) or not set(cs) <= params.keys()
                                      for cs in set(map(tuple, colors)))
    except TypeError:
        bad = True
    if bad:
        raise ValueError(f"a degree-{n} word takes {n} sets of distinct colours of {sorted(params)}, got {colors!r}")
    return n, coeffs


def nc_sum(
    coeffs: Sequence[np.ndarray],
    colors: Sequence[Sequence[str]],
    params: Mapping[str, JacobiParams],
) -> np.ndarray:
    """Sum of the partition terms over NC_{1,2}(n) and every block coloring
    allowed at both ends of each block; colors[i-1] lists the colors allowed
    at position i.  The entry of every partition-sum engine: it checks the
    degree, the coefficients and the colours (`_checked_word`), then
    tabulates the parameters once (`_tables`) and sums by the first-return
    recursion of `partitions._first_return` rather than term by term.
    Coefficients may carry a leading batch shape, broadcast together: a grid of
    equal-length words shares one recursion and one set of tables.

    When lambda_1..lambda_n are exactly zero, singleton blocks contribute
    nothing and the sum runs over pairings only.
    """
    n, coeffs = _checked_word(coeffs, colors, params)
    pairs_only = not any(np.count_nonzero(lam) for p in params.values() for lam in (*p.head_lambda, p.tail_lambda)[:n])
    zero = np.zeros(coeffs.shape[1:], dtype=complex)
    if pairs_only and n % 2:  # no pairing covers an odd number of positions
        return zero
    lam_b, alpha_b, flat = _tables(coeffs, params)

    def close(c: str, k: int, i: int, q: int, interior: Optional[np.ndarray]) -> np.ndarray:
        x = coeffs[i] if interior is None else coeffs[i] @ interior  # alpha_k(b_i interior) b_q
        return (alpha_b[c][k - 1][q] @ flat(x)).reshape(x.shape)

    one = np.eye(coeffs[0].shape[-1], dtype=complex)
    bound = dict.fromkeys(params, n + 1)  # no depth reaches n + 1; the tables repeat their last entry to depth n
    return coeffs[0] @ _first_return(n, colors, pairs_only, bound, lam_b, close, operator.matmul, one, zero)


def moment(params: JacobiParams, coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """mu[b_0 X b_1 ... X b_n] as the sum over NC_{1,2}(n), each block
    drawing its parameters at its depth."""
    return nc_sum(coeffs, [(BLUE,)] * (len(coeffs) - 1), {BLUE: params})


@dataclass(frozen=True)
class MomentTable:
    """Lazily evaluated moment functional mu[b_0 X b_1 ... X b_n] through `degree`, which the
    degree cap bounds when the table is made."""

    algebra: Algebra
    degree: int
    fn: Callable[[Sequence[np.ndarray]], np.ndarray]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        check_degree(self.degree)

    def _check_held(self, n: int) -> None:
        if n > self.degree:
            raise DegreeCapError(f"table holds moments through degree {self.degree}")

    def __call__(self, coeffs: Sequence[np.ndarray]) -> np.ndarray:  # fn's engine checks and converts the word
        self._check_held(len(coeffs) - 1)
        return self.fn(coeffs)

    def sequence(self, b: np.ndarray, degree: Optional[int] = None) -> list[np.ndarray]:
        """Coefficients mu[(X b)^n] of the moment generating series, n = 0..degree: the one loop
        that builds every moment sequence.  A degree the table does not hold, or a b outside the
        algebra, is refused before anything is computed, so degree 0 refuses the b that degree 1 does."""
        degree = self.degree if degree is None else degree
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self._check_held(degree)
        b = _checked_coeffs(self.algebra, [b])[0]
        one = np.broadcast_to(self.algebra.unit(), b.shape)  # n = 0 too carries the batch shape of b
        return [self([one] + [b] * n) for n in range(degree + 1)]


def params_moment_table(params: JacobiParams, degree: int) -> MomentTable:
    return MomentTable(params.algebra, degree, lambda coeffs: moment(params, coeffs))


def moment_sequence(params: JacobiParams, b: np.ndarray, degree: int) -> list[np.ndarray]:
    """Coefficients mu[(X b)^n] of the moment generating series, n = 0..degree."""
    return params_moment_table(params, degree).sequence(b)


def scalar_moments(params: JacobiParams, degree: int) -> list[complex]:
    """mu[X^n] for a d=1 parameter set, n = 0..degree."""
    if params.algebra.dim != 1:
        raise ValueError("scalar moments need a dim-1 algebra")
    return [m[0, 0] for m in moment_sequence(params, params.algebra.unit(), degree)]


# ---------------------------------------------------------------------------
# Fock-space oracle
# ---------------------------------------------------------------------------


# complex entries of the deepest Fock level, 128 MiB; a call's tracemalloc peak is 2.1-2.4x that (2.2-2.7x at odd n)
FOCK_ENTRY_CAP = 2**23


def fock_moment(params: JacobiParams, coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """<1, b_0 x b_1 ... x b_n 1> on the interacting Fock module of `params`: `_fock` of one colour."""
    return _fock(coeffs, [(BLUE,)] * (len(coeffs) - 1), {BLUE: params})


def _fock(
    coeffs: Sequence[np.ndarray], colors: Sequence[Sequence[str]], params: Mapping[str, JacobiParams]
) -> np.ndarray:
    """<1, b_0 X_1 b_1 ... X_n b_n 1>, X_i the sum of x_c over the colours c in colors[i-1], on the reduced free
    product over B of the interacting Fock modules of `params` (Voiculescu; Speicher): `nc_sum`'s oracle, on one
    word.  A degree-m vector holds an array over the (m+1)-fold tensor basis per labelling of its levels by (colour,
    run length), innermost last; with k the innermost run's length if its colour is c, else 0, x_c creates a level
    of colour c, preserves with lambda^c_{k+1} and annihilates with alpha^c_k.  A deepest level of |C|^(n//2)
    labellings (C the colours of `colors`) of (d^2)^(n//2 + 1) entries past FOCK_ENTRY_CAP raises DegreeCapError
    before it is allocated; a call's tracemalloc peak is 2.1-2.4 times that level (odd n: 2.2-2.7)."""
    n, coeffs = _checked_word(coeffs, colors, params)
    if coeffs.ndim > 3:
        raise ValueError("the Fock oracle takes one word: coefficients carry no batch axis")
    d, m, C = coeffs.shape[-1], n // 2, len({c for cs in colors for c in cs})
    if C**m * (d * d) ** (m + 1) > FOCK_ENTRY_CAP:
        raise DegreeCapError(
            f"a degree-{n} word on d = {d} needs {d * d}^{m + 1} = {(d * d) ** (m + 1)} entries per Fock vector, for"
            f" each of {C}^{m} labellings of its levels; the Fock oracle is capped at {FOCK_ENTRY_CAP}"
        )
    eye, unit = np.eye(d), vec(np.eye(d, dtype=complex))  # a complex unit: np.outer casts nothing
    # b x on the innermost x: b times each column in vec(x); alpha_k sends (x0, x1, rest) to (alpha_k[x0] x1, rest)
    ann = {c: [np.einsum("cC,rpi->cpiCr", eye, p.alpha(k).dense.reshape(d, d, -1)).reshape(d * d, -1)
               for k in range(1, m + 1)] for c, p in params.items()}

    def put(key: tuple, v: np.ndarray) -> None:  # accumulates in place
        acc = new.setdefault(key, v)
        if acc is not v:
            acc += v

    state = {(): unit[:, None]}  # labels -> component as a (d^2, rest) array, before b_i of its step acts
    for i in range(n, 0, -1):
        new = {}
        for key in sorted(state, key=len, reverse=True):  # the deepest first, each dropped once its images are formed
            v = (coeffs[i] @ state.pop(key).reshape(d, d, -1)).reshape(d * d, -1)
            for c in colors[i - 1]:
                k = key[-1][1] if key and key[-1][0] == c else 0
                if len(key) + 2 <= i:  # a degree above i - 1 can never return to degree 0
                    put(key + ((c, k + 1),), np.outer(unit, v))
                if len(key) < i:
                    put(key, (params[c].lam(k + 1) @ v.reshape(d, d, -1)).reshape(d * d, -1))
                if k:
                    put(key[:-1], ann[c][k - 1] @ v.reshape(d**4, -1))
            del v  # before the next component's product is formed
        state = new
    return coeffs[0] @ unvec(state[()][:, 0], d)


# ---------------------------------------------------------------------------
# Parameter-level transformations
# ---------------------------------------------------------------------------


def strip(params: JacobiParams) -> JacobiParams:
    """Coefficient stripping: drop the first lambda and the first alpha."""
    return replace(
        params,
        head_lambda=params.head_lambda[1:],
        head_alpha=params.head_alpha[1:],
    )


def boolean_power(params: JacobiParams, eta: LinMap) -> JacobiParams:
    """Boolean convolution power: (lambda_1, alpha_1) -> (eta[lambda_1], eta o alpha_1)."""
    if eta.algebra != params.algebra:
        raise ValueError("algebra mismatch")
    head_l = (eta(params.lam(1)),) + params.head_lambda[1:]
    head_a = (eta.compose(params.alpha(1)),) + params.head_alpha[1:]
    return replace(params, head_lambda=head_l, head_alpha=head_a, positive=False)


def shift_by_delta(params: JacobiParams, lam: np.ndarray) -> JacobiParams:
    """Free convolution with the point mass at lam: every lambda_i shifts."""
    lam = _checked_element(params.algebra, lam)
    if params.positive and not is_self_adjoint(lam):  # judged against the shift itself, not against lambda_i + lam
        raise ValueError("shift must be self-adjoint")
    return replace(
        params,
        head_lambda=tuple(l + lam for l in params.head_lambda),
        tail_lambda=params.tail_lambda + lam,
    )


def phi_transform(params: JacobiParams) -> JacobiParams:
    """Prepend lambda_0' = 0 and alpha_0' = identity to the parameter sequences."""
    return replace(
        params,
        head_lambda=(params.algebra.zero(),) + params.head_lambda,
        head_alpha=(LinMap.identity(params.algebra),) + params.head_alpha,
    )


def truncate(params: JacobiParams, k: int) -> JacobiParams:
    """Depth-k truncation: keep lambda_1..lambda_k and alpha_1..alpha_{k-1}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return JacobiParams(
        params.algebra,
        tuple(params.lam(i) for i in range(1, k + 1)),
        tuple(params.alpha(i) for i in range(1, k)),
        params.algebra.zero(),
        LinMap.zero(params.algebra),
        positive=params.positive,
    )


# ---------------------------------------------------------------------------
# Continued fraction approximants
# ---------------------------------------------------------------------------


class SingularResolventError(ValueError):
    def __init__(self, level: int):
        super().__init__(f"singular resolvent at continued-fraction level {level}")
        self.level = level


def _cf_at(params: JacobiParams, k: int, u: np.ndarray) -> np.ndarray:
    """The depth-k continued fraction at u in M_m(B), an (m d, m d) array: from s = 1, level i = k..1 sets
    s = (1 - lambda_i u - alpha_i(u s) u)^-1, lambda_i acting on each block row and alpha_i block by block.  u is
    block upper triangular, so a level is singular iff a diagonal block is, which raises SingularResolventError."""
    d = params.algebra.dim
    m = len(u) // d
    one = s = np.eye(m * d, dtype=complex)
    for i in range(k, 0, -1):
        x = params.alpha(i)((u @ s).reshape(m, d, m, d).swapaxes(1, 2))  # on the (m, m, d, d) stack of blocks
        a = one - (params.lam(i) @ u.reshape(m, d, -1)).reshape(m * d, -1) - x.swapaxes(1, 2).reshape(m * d, -1) @ u
        if np.linalg.cond(np.einsum("iaib->iab", a.reshape(m, d, m, d))).max() * np.finfo(float).eps >= 1:
            raise SingularResolventError(i)
        s = np.linalg.inv(a)
    return s


def cf_approximant(params: JacobiParams, k: int, b: np.ndarray) -> np.ndarray:
    """Numeric value of the depth-k finite continued fraction at b: `_cf_at` with m = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _cf_at(params, k, _checked_element(params.algebra, b))


def cf_series(params: JacobiParams, k: int, b: np.ndarray, degree: int) -> list[np.ndarray]:
    """Formal expansion of the depth-k continued fraction at t*b in t: coefficient n is block (0, n) of `_cf_at` at
    S (x) b, S the (degree + 1)-square shift, where each degree-n term x is S^n (x) x and each level's diagonal is 1."""
    if k < 1 or degree < 0:
        raise ValueError("k >= 1 and degree >= 0 required")
    b = _checked_element(params.algebra, b)
    s = _cf_at(params, k, np.kron(np.eye(degree + 1, k=1), b))
    return list(s[: len(b)].reshape(len(b), degree + 1, -1).swapaxes(0, 1))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def point_mass(algebra: Algebra, lam: np.ndarray) -> JacobiParams:
    lam = _checked_element(algebra, lam)
    return JacobiParams(algebra, (lam,), (), algebra.zero(), LinMap.zero(algebra), positive=is_self_adjoint(lam))


def semicircular(algebra: Algebra, alpha: LinMap, mean: Optional[np.ndarray] = None) -> JacobiParams:
    return JacobiParams(algebra, (), (), algebra.zero() if mean is None else mean, alpha)


def bernoulli(algebra: Algebra, lam1: np.ndarray, lam2: np.ndarray, alpha: LinMap) -> JacobiParams:
    return JacobiParams(algebra, (lam1, lam2), (alpha,), algebra.zero(), LinMap.zero(algebra))


def two_point(algebra: Algebra, t: float, a: np.ndarray, c: np.ndarray) -> JacobiParams:
    """The two-point law t*delta_a + (1-t)*delta_c."""
    if not 0 < t < 1:
        raise ValueError("two_point requires 0 < t < 1")
    a, c = _checked_element(algebra, a), _checked_element(algebra, c)
    lam1 = t * a + (1 - t) * c
    lam2 = (1 - t) * a + t * c
    alpha = LinMap.from_kraus(algebra, [np.sqrt(t * (1 - t)) * (a - c)])
    return bernoulli(algebra, lam1, lam2, alpha)


def free_poisson(
    algebra: Algebra,
    lam: np.ndarray,
    alpha: LinMap,
    mean: Optional[np.ndarray] = None,
) -> JacobiParams:
    centered = JacobiParams(algebra, (algebra.zero(),), (alpha,), lam, alpha)
    if mean is None:
        return centered
    return shift_by_delta(centered, mean)


def meixner(algebra: Algebra, lam: np.ndarray, alpha: LinMap, eta: LinMap) -> JacobiParams:
    """fM(lam, alpha; eta) = J(0, lam, lam, ...; eta, eta+alpha, eta+alpha, ...)."""
    return JacobiParams(algebra, (algebra.zero(),), (eta,), lam, eta + alpha)


def arcsine(algebra: Algebra, alpha: LinMap) -> JacobiParams:
    return JacobiParams(algebra, (), (alpha.scale(2),), algebra.zero(), alpha)


def free_binomial(algebra: Algebra, eta: LinMap, alpha: LinMap) -> JacobiParams:
    return JacobiParams(algebra, (), (eta,), algebra.zero(), eta - alpha)


NAMED_FAMILIES = {
    "point_mass": point_mass,
    "semicircular": semicircular,
    "bernoulli": bernoulli,
    "two_point": two_point,
    "free_poisson": free_poisson,
    "meixner": meixner,
    "arcsine": arcsine,
    "free_binomial": free_binomial,
}


def make_named(family: str, algebra: Algebra, **kwargs) -> JacobiParams:
    try:
        ctor = NAMED_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return ctor(algebra, **kwargs)


# ---------------------------------------------------------------------------
# Meixner semigroup
# ---------------------------------------------------------------------------


def meixner_recognize(params: JacobiParams) -> Optional[tuple[np.ndarray, LinMap, LinMap]]:
    """Match the canonical layout J(0, lam, lam, ...; eta, eta+alpha, ...)
    and return (lam, alpha, eta), or None."""
    lam, eta = params.lam(2), params.alpha(1)
    alpha = params.alpha(2) - eta
    if not params.isclose(meixner(params.algebra, lam, alpha, eta)):
        return None
    return lam, alpha, eta


def meixner_convolve(p1: JacobiParams, p2: JacobiParams) -> JacobiParams:
    """Free convolution inside the Meixner family: fM(l,a;e1) +> fM(l,a;e2)
    = fM(l,a;e1+e2)."""
    if p1.algebra != p2.algebra:
        raise ValueError("algebra mismatch")
    r1, r2 = meixner_recognize(p1), meixner_recognize(p2)
    if r1 is None or r2 is None:
        raise ValueError("inputs are not in the canonical free Meixner layout")
    (lam1, alpha1, eta1), (lam2, alpha2, eta2) = r1, r2
    # each alpha is a difference of the alpha maps, so those set its scale
    alphas = [p.alpha(i).dense for p in (p1, p2) for i in (1, 2)]
    if not (negligible(lam1 - lam2, lam1, lam2) and negligible(alpha1.dense - alpha2.dense, *alphas)):
        raise ValueError("Meixner inputs have mismatched (lambda, alpha)")
    return meixner(p1.algebra, lam1, alpha1, eta1 + eta2)


# ---------------------------------------------------------------------------
# Free binomial moments
# ---------------------------------------------------------------------------


def free_binomial_word_moment(
    a: np.ndarray,
    coeffs: Sequence[np.ndarray],
    t: float,
    expectation: Callable[[np.ndarray], np.ndarray],
    algebra: Algebra,
) -> np.ndarray:
    """Moment of the t-th free power of the law of a: m_{n/2}(t) b_0 a b_1 ... a b_n.

    Requires E[a] = 0 and a B a inside B for the supplied model.
    """
    a = np.asarray(a, dtype=complex)
    if not negligible(expectation(a), a):
        raise ValueError("model requires E[a] = 0")
    if not algebra.contains(a @ algebra.basis() @ a):
        raise ValueError("model requires a B a inside B")
    coeffs = _checked_coeffs(algebra, coeffs)
    n = len(coeffs) - 1
    if n % 2:
        return np.zeros_like(coeffs[0])
    word = coeffs[0]
    for c in coeffs[1:]:
        word = word @ a @ c
    return float(free_binomial_moment(n // 2, Fraction(t).limit_denominator(10**12))) * word


# ---------------------------------------------------------------------------
# Poisson limit
# ---------------------------------------------------------------------------


def poisson_limit_params(N: int, lam1: float, lam: float, alpha: float) -> JacobiParams:
    """Exact Jacobi parameters of mu_N^{+>N} for the scalar Bernoulli block
    with lambdas (lam1/N, lam1/N + lam) and first alpha alpha/N, computed
    via the delta-shift decomposition and the Meixner semigroup."""
    if N < 1:
        raise ValueError("N must be >= 1")
    alg = Algebra("full", 1)
    one = np.eye(1, dtype=complex)
    a_over_n = LinMap.from_dense(alg, (alpha / N) * one)
    # the centered block is fM(lam, -alpha/N; alpha/N); N of them add their etas
    convolved = meixner(alg, lam * one, a_over_n.scale(-1), a_over_n.scale(N))
    return shift_by_delta(convolved, lam1 * one)


def poisson_limit_check(
    N: int, lam1: float, lam: float, alpha: float, degree: int = 8
) -> tuple[list[complex], list[complex]]:
    """Scalar moment sequences of mu_N^{+>N} and of the target free Poisson."""
    approx = poisson_limit_params(N, lam1, lam, alpha)
    alg = Algebra("full", 1)
    one = np.eye(1, dtype=complex)
    target = free_poisson(alg, lam * one, LinMap.from_dense(alg, alpha * one), mean=lam1 * one)
    return scalar_moments(approx, degree), scalar_moments(target, degree)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def params_to_json(p: JacobiParams) -> dict:
    return {
        "algebra": algebra_to_json(p.algebra),
        "head_lambda": [element_to_json(p.algebra, l) for l in p.head_lambda],
        "head_alpha": [linmap_to_json(a) for a in p.head_alpha],
        "tail_lambda": element_to_json(p.algebra, p.tail_lambda),
        "tail_alpha": linmap_to_json(p.tail_alpha),
        "positive": p.positive,
    }


@json_loader
def params_from_json(obj) -> JacobiParams:
    alg = algebra_from_json(obj["algebra"])
    return JacobiParams(
        alg,
        tuple(element_from_json(alg, e) for e in obj["head_lambda"]),
        tuple(linmap_from_json(alg, a) for a in obj["head_alpha"]),
        element_from_json(alg, obj["tail_lambda"]),
        linmap_from_json(alg, obj["tail_alpha"]),
        positive=obj.get("positive", False),
    )


def word_to_json(algebra: Algebra, coeffs: Sequence[np.ndarray]) -> dict:
    return {
        "algebra": algebra_to_json(algebra),
        "coeffs": [element_to_json(algebra, c) for c in coeffs],
    }


@json_loader
def word_from_json(obj) -> tuple[Algebra, list[np.ndarray]]:
    alg = algebra_from_json(obj["algebra"])
    coeffs = [element_from_json(alg, e) for e in obj["coeffs"]]
    return alg, list(_checked_coeffs(alg, coeffs))
