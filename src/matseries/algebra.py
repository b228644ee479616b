"""Dense square-matrix algebra over a real or complex scalar field.

The library works in a finite-dimensional Banach algebra: n-by-n matrices
with the Frobenius norm, which is submultiplicative (``norm(A @ B) <=
norm(A) * norm(B)``).  The paper's expansions use the commutant
``C(T) = L(T) - R(T)`` with ``L(T) h = h @ T`` and ``R(T) h = T @ h``.

Operator norm facts used throughout (with ``s = algebra_norm(T)``):
``norm(L(T) h) <= s * norm(h)``, ``norm(R(T) h) <= s * norm(h)`` and
``norm(C(T) h) <= 2 s * norm(h)``; also ``R(T1)`` and ``L(T2)`` commute
exactly for any ``T1, T2`` since both sides equal ``T1 @ h @ T2``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraError",
    "DimensionMismatchError",
    "FieldMismatchError",
    "ScalarField",
    "MatrixElement",
    "matrix",
    "identity",
    "zeros",
    "algebra_norm",
    "apply_commutant",
    "apply_commutant_power",
]


class AlgebraError(ValueError):
    """Invalid matrix construction or operation."""


class DimensionMismatchError(AlgebraError):
    """Operands have different dimensions."""


class FieldMismatchError(AlgebraError):
    """Operands live over different scalar fields."""


class ScalarField(enum.Enum):
    """Scalar field tag; every matrix carries exactly one."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is ScalarField.REAL else np.complex128)


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """An immutable n-by-n matrix over a fixed scalar field.

    ``entries`` is stored as a read-only float64/complex128 array.  Use
    :func:`matrix` to construct one with field inference; arithmetic between
    elements of different fields is rejected rather than promoted.
    """

    entries: np.ndarray
    field: ScalarField

    def __post_init__(self) -> None:
        raw = np.asarray(self.entries)
        if self.field is ScalarField.REAL and np.iscomplexobj(raw):
            raise FieldMismatchError("complex entries are not representable over the real field")
        try:
            arr = np.array(raw, dtype=self.field.dtype)
        except (TypeError, ValueError) as exc:
            raise FieldMismatchError(
                f"entries not representable over the {self.field.value} field: {exc}"
            ) from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise AlgebraError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise AlgebraError("zero-dimensional matrices are rejected")
        if not np.all(np.isfinite(arr)):
            raise AlgebraError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"MatrixElement(dim={self.dim}, field={self.field.value})"

    # The matrix operations: operands of another field or dimension are rejected.
    def __matmul__(self, other: "MatrixElement") -> "MatrixElement":
        a, b = _check_pair(self, other)
        return MatrixElement(a @ b, self.field)

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        a, b = _check_pair(self, other)
        return MatrixElement(a + b, self.field)

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        a, b = _check_pair(self, other)
        return MatrixElement(a - b, self.field)

    def __mul__(self, alpha) -> "MatrixElement":
        """Scalar multiple ``alpha * self``; complex scalars require the complex field."""
        if self.field is ScalarField.REAL and not isinstance(alpha, numbers.Real):
            raise FieldMismatchError("complex scalar on a real-field matrix")
        return MatrixElement(alpha * self.entries, self.field)

    __rmul__ = __mul__

    def __neg__(self) -> "MatrixElement":
        return -1.0 * self

    def to_json(self) -> dict:
        """Wire format: ``{"dim", "field", "entries"}`` with row-major entries.

        Real entries are plain numbers; complex entries are ``[re, im]``
        pairs.
        """
        flat = self.entries.ravel(order="C")
        if self.field is ScalarField.REAL:
            ent = [float(v) for v in flat]
        else:
            ent = [[float(v.real), float(v.imag)] for v in flat]
        return {"dim": self.dim, "field": self.field.value, "entries": ent}

    @staticmethod
    def from_json(obj: dict) -> "MatrixElement":
        """Parse the wire format produced by :meth:`to_json`."""
        if not isinstance(obj, dict):
            raise AlgebraError("matrix JSON must be an object")
        missing = {"dim", "field", "entries"} - set(obj)
        if missing:
            raise AlgebraError(f"matrix JSON missing keys: {sorted(missing)}")
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise AlgebraError(f"matrix dim must be a positive integer, got {dim!r}")
        try:
            field = ScalarField(obj["field"])
        except ValueError:
            raise AlgebraError(f"unknown field tag {obj['field']!r}") from None
        ent = obj["entries"]
        if not isinstance(ent, list) or len(ent) != dim * dim:
            raise AlgebraError(f"expected {dim * dim} entries, got {len(ent) if isinstance(ent, list) else type(ent)}")
        try:
            if field is ScalarField.REAL:
                if not all(map(_is_number, ent)):
                    raise AlgebraError("real matrix entries must be numbers")
                arr = np.array(ent, dtype=np.float64).reshape(dim, dim)
            else:
                vals = []
                for v in ent:
                    if not (isinstance(v, (list, tuple)) and len(v) == 2
                            and all(map(_is_number, v))):
                        raise AlgebraError("complex matrix entries must be [re, im] pairs")
                    vals.append(complex(v[0], v[1]))
                arr = np.array(vals, dtype=np.complex128).reshape(dim, dim)
        except OverflowError:  # integers beyond the float range
            raise AlgebraError("matrix entries must be finite") from None
        return MatrixElement(arr, field)


def _is_number(v) -> bool:
    """The one rule for a number in JSON input: a real number that is not a bool."""
    # json.loads yields exact floats and ints; the ABC check costs ten times as much
    return type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def matrix(data, field: ScalarField | None = None) -> MatrixElement:
    """Build a :class:`MatrixElement`, inferring the field unless given.

    Complex input data forces ``ScalarField.COMPLEX``; explicit
    ``field=REAL`` on complex data raises :class:`FieldMismatchError`.
    """
    arr = np.asarray(data)
    if field is None:
        field = ScalarField.COMPLEX if np.iscomplexobj(arr) else ScalarField.REAL
    return MatrixElement(arr, field)


def identity(dim: int, field: ScalarField = ScalarField.REAL) -> MatrixElement:
    return MatrixElement(np.eye(dim, dtype=field.dtype), field)


def zeros(dim: int, field: ScalarField = ScalarField.REAL) -> MatrixElement:
    return MatrixElement(np.zeros((dim, dim), dtype=field.dtype), field)


def _check_pair(a: MatrixElement, b: MatrixElement) -> tuple[np.ndarray, np.ndarray]:
    """Reject operands of different fields or dimensions; return both entry arrays."""
    if a.field is not b.field:
        raise FieldMismatchError(
            f"mixed-field arithmetic is rejected: {a.field.value} vs {b.field.value}"
        )
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a.entries, b.entries


def _powers(ta: np.ndarray, count: int) -> np.ndarray:
    """Stack of ``T^0, T^1, ..., T^count``, shape ``(count + 1, d, d)``, filled in place."""
    out = np.empty((count + 1,) + ta.shape, dtype=ta.dtype)
    out[0] = np.eye(ta.shape[0])
    for k in range(count):
        np.matmul(out[k], ta, out=out[k + 1])
    return out


def algebra_norm(a: MatrixElement) -> float:
    """Frobenius norm of ``a``, the Banach-algebra norm of every radius check.

    Entries whose squares leave the double range are first divided by the
    largest component magnitude, so the norm is infinite only when it
    exceeds the double range itself.
    """
    x = a.entries
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(x))
        if math.isfinite(norm) and (norm > 0.0 or not x.any()):
            return norm
        big = float(max(np.abs(x.real).max(), np.abs(x.imag).max()))
        return big * float(np.linalg.norm(x / big))


def apply_commutant(t: MatrixElement, h: MatrixElement) -> MatrixElement:
    """C(T) applied to h: returns ``h @ T - T @ h``.

    With the bracket ``[A, B] = A B - B A`` this is ``[h, T]``, i.e.
    ``C(T) = L(T) - R(T)``.
    """
    _check_pair(t, h)
    return MatrixElement(h.entries @ t.entries - t.entries @ h.entries, t.field)


def apply_commutant_power(t: MatrixElement, h: MatrixElement, p: int) -> MatrixElement:
    """C(T)^p applied to h, computed by p nested bracket applications.

    Equal (to rounding) to the binomial form
    ``sum_{k=0..p} (-1)^k binom(p,k) T^k h T^(p-k)``,
    which holds because L(T) and R(T) commute.
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise AlgebraError(f"power must be a nonnegative integer, got {p!r}")
    _check_pair(t, h)
    ta = t.entries
    acc = h.entries
    for _ in range(p):
        acc = acc @ ta - ta @ acc
    return MatrixElement(acc, t.field)
