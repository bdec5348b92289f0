"""Finite-dimensional base algebras: full matrix algebra M_d and the
diagonal subalgebra D_d over complex scalars, their elements (plain
complex ndarrays) and linear self-maps.

A linear map is its d^2 x d^2 dense matrix acting on the column-major
vectorization, and nothing else; a Kraus family is only a way to build one.
Complete positivity is the Choi test: the map is CP iff its Choi matrix is
positive semidefinite.

Every numerical verdict in the package goes through one relative rule,
`negligible`, with the single tolerance `TOL`.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TOL = 1e-8  # about sqrt(machine epsilon): half the float64 digits


def negligible(x, *scale, axis=None) -> bool:
    """No entry of `x` exceeds TOL times the largest entry of the `scale`
    operands, the inputs that produced `x`; `a` and `b` are close when
    negligible(a - b, a, b).  Against a zero scale only zero is negligible.
    With `axis`, each slice over those axes is judged on its own."""
    bound = 0.0  # no scale is a zero scale; np.maximum, unlike max, keeps a NaN, which fails the comparison
    for i, v in enumerate(scale):
        m = np.abs(v).max(axis=axis, initial=0.0)
        bound = np.maximum(bound, m) if i else m
    return bool((np.abs(x).max(axis=axis, initial=0.0) <= TOL * bound).all())


@dataclass(frozen=True)
class Algebra:
    """Descriptor of the base algebra: M_d ('full') or D_d ('diagonal')."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("full", "diagonal"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if type(self.dim) is not int:  # 2.0 and True compare like integers but are none
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def zero(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=complex)

    def basis(self) -> np.ndarray:
        """The (m, d, d) stack of matrix units e_ij in row-major order; only the e_ii for the diagonal kind."""
        d = self.dim
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        return units[:: d + 1] if self.kind == "diagonal" else units

    def contains(self, mat: np.ndarray, stacked: bool = False) -> bool:
        """Whether `mat` lies in the algebra; with `stacked`, whether each matrix of a stack (..., d, d) does."""
        if mat.shape[-2:] != (self.dim, self.dim) or (mat.ndim > 2 and not stacked):
            return False
        return self.kind == "full" or negligible(np.where(np.eye(self.dim, dtype=bool), 0, mat), mat, axis=(-2, -1))


def unit_matrix(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def is_self_adjoint(mat: np.ndarray) -> bool:
    """Whether `mat` is a self-adjoint matrix, or each matrix of a stack (..., k, k) is, each judged against itself."""
    return mat.ndim >= 2 and negligible(mat - mat.conj().swapaxes(-1, -2), mat, axis=(-2, -1))


def _is_psd(mat: np.ndarray) -> bool:
    """Whether `mat` is positive semidefinite, or each matrix of a stack (..., k, k) is, each judged against itself."""
    eig = np.linalg.eigvalsh((mat + mat.conj().swapaxes(-1, -2)) / 2)[..., None]  # one (k, 1) column per matrix
    return is_self_adjoint(mat) and negligible(np.minimum(eig, 0), mat, axis=(-2, -1))


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-major vectorization of the last two axes."""
    return mat.swapaxes(-1, -2).reshape(*mat.shape[:-2], mat.shape[-2] * mat.shape[-1])


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


@dataclass(frozen=True)
class LinMap:
    """A linear self-map of the base algebra: `dense` is the d^2 x d^2 matrix acting on
    column-major vectorizations."""

    algebra: Algebra
    dense: np.ndarray

    def __post_init__(self):
        d2 = self.algebra.dim ** 2
        if self.dense.shape != (d2, d2):
            raise ValueError(f"dense form must be {d2}x{d2}")

    @classmethod
    def from_kraus(cls, algebra: Algebra, mats: Sequence[np.ndarray]) -> "LinMap":
        d = algebra.dim
        mats = [np.asarray(k, dtype=complex) for k in mats]
        if any(a.shape != (d, d) for a in mats):  # before the (d^2, d^2) dense form is allocated
            raise ValueError("Kraus operators must be d x d")
        dense = np.zeros((d * d, d * d), dtype=complex)
        for a in mats:  # vec(A b A*) = (conj(A) o A) vec(b) in column-major convention
            dense += np.kron(a.conj(), a)
        return cls(algebra, dense)

    @classmethod
    def from_dense(cls, algebra: Algebra, dense: np.ndarray) -> "LinMap":
        return cls(algebra, np.asarray(dense, dtype=complex))

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinMap":
        d = algebra.dim
        return cls(algebra, np.eye(d * d, dtype=complex))

    @classmethod
    def zero(cls, algebra: Algebra) -> "LinMap":
        d = algebra.dim
        return cls(algebra, np.zeros((d * d, d * d), dtype=complex))

    def apply(self, b: np.ndarray) -> np.ndarray:
        """The image of one element, or of each element of a stack (..., d, d), in one product."""
        d = self.algebra.dim
        b = np.asarray(b, dtype=complex)
        if b.shape[-2:] != (d, d):
            raise ValueError("algebra mismatch: element has wrong shape")
        return unvec((self.dense @ vec(b)[..., None])[..., 0], d)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.apply(b)

    def compose(self, other: "LinMap") -> "LinMap":
        _check_same_algebra(self, other)
        return LinMap(self.algebra, self.dense @ other.dense)

    def __add__(self, other: "LinMap") -> "LinMap":
        _check_same_algebra(self, other)
        return LinMap(self.algebra, self.dense + other.dense)

    def __sub__(self, other: "LinMap") -> "LinMap":
        _check_same_algebra(self, other)
        return LinMap(self.algebra, self.dense - other.dense)

    def scale(self, t: complex) -> "LinMap":
        return LinMap(self.algebra, t * self.dense)

    def __mul__(self, t: complex) -> "LinMap":
        return self.scale(t)

    __rmul__ = __mul__

    def choi(self) -> np.ndarray:
        """The block matrix [map(e_ij)]_ij, read off `dense`: entry (i*d+a, j*d+b) is dense[b*d+a, j*d+i]."""
        d = self.algebra.dim
        return self.dense.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)

    def is_cp(self) -> bool:
        return _is_psd(self.choi())

    def preserves_diagonal(self) -> bool:
        """Off-diagonal parts of the images of the diagonal units are
        negligible against the map itself."""
        diag = np.eye(self.algebra.dim, dtype=bool).reshape(-1)  # positions i*d+i of a vectorization
        return negligible(self.dense[~diag][:, diag], self.dense)

    def norm(self) -> float:
        return float(np.linalg.norm(self.dense, 2))

    def isclose(self, other: "LinMap") -> bool:
        return self.algebra == other.algebra and negligible(self.dense - other.dense, self.dense, other.dense)


def _check_same_algebra(m1: LinMap, m2: LinMap) -> None:
    if m1.algebra != m2.algebra:
        raise ValueError("algebra mismatch between maps")


def flip_map(d: int = 2) -> LinMap:
    """b -> sum_i e_{i,i+1} b e_{i+1,i} + h.c.; for d=2 the coordinate flip
    on the diagonal subalgebra (XbX with X = e_12 + e_21)."""
    alg = Algebra("diagonal", d)
    kraus = [unit_matrix(d, i, j) for i in range(d) for j in range(d) if abs(i - j) == 1]
    return LinMap.from_kraus(alg, kraus)


# ---------------------------------------------------------------------------
# JSON wire format: complex as [re, im], matrices as row-major lists of rows.
# ---------------------------------------------------------------------------


def json_loader(load: Callable) -> Callable:
    """Decorate a JSON loader: a value of the wrong JSON type (a list for an object, say) or an object
    without a field the loader reads is a ValueError, the latter naming the field."""
    @functools.wraps(load)
    def checked(*args):
        try:
            return load(*args)
        except TypeError as exc:
            raise ValueError(f"JSON value of the wrong type: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"JSON object lacks the field {exc}") from None
    return checked


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    """A finite JSON number or an [re, im] pair of them; anything else is a ValueError: a bool, and NaN,
    the infinities and literals past the float range (such as 1e400), which `json.load` accepts."""
    def number(x):  # NaN fails the comparison, and an int is compared exactly, without overflow
        return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max

    if number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(map(number, v)):
        return complex(*v)
    raise ValueError(f"a matrix entry must be a finite number or an [re, im] pair of finite numbers, got {v!r}")


def matrix_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)


def algebra_to_json(alg: Algebra) -> dict:
    return {"kind": alg.kind, "dim": alg.dim}


@json_loader
def algebra_from_json(obj) -> Algebra:
    return Algebra(obj["kind"], obj["dim"])


def element_to_json(alg: Algebra, mat: np.ndarray) -> dict:
    return {"algebra": algebra_to_json(alg), "entries": matrix_to_json(mat)}


@json_loader
def element_from_json(alg: Algebra, obj) -> np.ndarray:
    """The entries of an element of `alg`; an element that names its algebra must name `alg`."""
    if "algebra" in obj and algebra_from_json(obj["algebra"]) != alg:
        raise ValueError(f"an element declares the algebra {obj['algebra']}, not {algebra_to_json(alg)}")
    return matrix_from_json(obj["entries"])


def linmap_to_json(m: LinMap) -> dict:
    return {"dense": matrix_to_json(m.dense)}


@json_loader
def linmap_from_json(algebra: Algebra, obj) -> LinMap:
    if "kraus" in obj:
        kraus = [matrix_from_json(a) for a in obj["kraus"]]
        if not kraus:  # it would pass the shape check and still allocate the (d^2, d^2) zero map
            raise ValueError("a Kraus family needs at least one operator")
        return LinMap.from_kraus(algebra, kraus)
    if "dense" in obj:
        return LinMap.from_dense(algebra, matrix_from_json(obj["dense"]))
    raise ValueError("linear map JSON needs 'kraus' or 'dense'")
