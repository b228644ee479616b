"""Independent reference routes for the differential algorithms.

None of these share code with the expansion algorithms, so agreement is
meaningful evidence:

* central finite differences of ``T -> g(T)`` (second-order in the step);
* the block-triangular identity: the upper-right block of
  ``g([[T, h], [0, T]])`` equals ``g'(T)(h)`` (standard matrix-function
  folklore, external to the expansion machinery);
* the closed-form resolvent differential for the geometric series
  ``g(T) = (I - T)^(-1)``, namely ``(I - T)^(-1) h (I - T)^(-1)``;
* exact finite sums for polynomial coefficient lists.
"""

from __future__ import annotations

import numpy as np

from .algebra import MatrixElement, ScalarField, _check_pair, algebra_norm
from .frechet import monomial_differential
from .series import (
    DEFAULT_POLICY,
    OutsideRadiusError,
    PowerSeries,
    SeriesError,
    TruncationPolicy,
    eval_matrix,
)

__all__ = [
    "fd_differential",
    "block_triangular_differential",
    "resolvent_differential",
    "polynomial_differential",
    "fd_slope",
    "DEFAULT_FD_STEP",
]

#: Balances the O(step^2) truncation error against O(eps/step) cancellation.
DEFAULT_FD_STEP = 1e-5

#: Norm target for the scaled perturbation block; linearity undoes the
#: scaling exactly, so any value keeping the doubled matrix in the ball works.
_BLOCK_SCALE_CAP = 0.1


def fd_differential(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                    step: float = DEFAULT_FD_STEP,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> MatrixElement:
    """Central difference ``[g(T + step h) - g(T - step h)] / (2 step)``.

    Both perturbed points must stay inside the radius:
    ``norm(T) + step * norm(h) < R``.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    _check_pair(t, h)
    reach = algebra_norm(t) + step * algebra_norm(h)
    if not reach < g.radius:
        raise OutsideRadiusError(
            f"perturbed points reach norm {reach:.6g}, outside radius {g.radius:.6g}"
        )
    plus = MatrixElement(t.entries + step * h.entries, t.field)
    minus = MatrixElement(t.entries - step * h.entries, t.field)
    gp, _ = eval_matrix(g, plus, policy)
    gm, _ = eval_matrix(g, minus, policy)
    return MatrixElement((gp.entries - gm.entries) / (2.0 * step), gp.field)


def block_triangular_differential(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                                  policy: TruncationPolicy = DEFAULT_POLICY) -> MatrixElement:
    """Upper-right block of ``g([[T, gamma h], [0, T]])`` divided by gamma.

    The perturbation is pre-scaled by ``gamma = 0.1 / max(1, norm(h))`` so
    the doubled matrix stays inside the ball; the differential is linear in
    h, so dividing the block by gamma undoes the scaling exactly.  Fails
    when T alone is too large to fit even with a vanishing perturbation
    (the doubled matrix has norm at least ``sqrt(2) * norm(T)``).
    """
    _check_pair(t, h)
    gamma = _BLOCK_SCALE_CAP / max(1.0, algebra_norm(h))
    n = t.dim
    big = np.zeros((2 * n, 2 * n), dtype=t.field.dtype)
    big[:n, :n] = t.entries
    big[n:, n:] = t.entries
    big[:n, n:] = gamma * h.entries
    block = MatrixElement(big, t.field)
    if not algebra_norm(block) < g.radius:
        raise OutsideRadiusError(
            f"cannot rescale into the radius: the doubled matrix has norm "
            f"{algebra_norm(block):.6g} >= {g.radius:.6g} (T itself is too large)"
        )
    value, _ = eval_matrix(g, block, policy)
    return MatrixElement(value.entries[:n, n:] / gamma, value.field)


def resolvent_differential(t: MatrixElement, h: MatrixElement) -> MatrixElement:
    """Closed form for the geometric series: ``(I - T)^(-1) h (I - T)^(-1)``.

    Computed with two linear solves (no explicit inverse).  Requires
    ``norm(T) < 1``, which also guarantees ``I - T`` is invertible.
    """
    _check_pair(t, h)
    if not algebra_norm(t) < 1.0:
        raise OutsideRadiusError(
            f"the geometric series needs norm(T) < 1, got {algebra_norm(t):.6g}"
        )
    eye = np.eye(t.dim, dtype=t.field.dtype)
    lhs = eye - t.entries
    x = np.linalg.solve(lhs, h.entries)
    # right division: solve y (I - T) = x through the plain (non-conjugated) transpose
    y = np.linalg.solve(lhs.T, x.T).T
    return MatrixElement(y, t.field)


def polynomial_differential(coeffs, t: MatrixElement, h: MatrixElement) -> MatrixElement:
    """Exact differential of a polynomial: ``sum_n a_n u_n(T, h)``, no truncation."""
    _check_pair(t, h)
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesError("coefficients must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise SeriesError("coefficients must be finite")
    is_complex = bool(np.iscomplexobj(arr))
    field = ScalarField.COMPLEX if (is_complex or t.field is ScalarField.COMPLEX) \
        else ScalarField.REAL
    acc = np.zeros((t.dim, t.dim), dtype=field.dtype)
    for n in range(1, arr.size):
        if arr[n] == 0:
            continue
        acc = acc + arr[n] * monomial_differential(n, t, h).entries
    return MatrixElement(acc, field)


def fd_slope(errors: list[float], steps: list[float]) -> float:
    """Least-squares slope of log(error) against log(step).

    Central differences converge at second order, so the fitted slope
    should sit near 2 until rounding noise takes over at tiny steps.
    """
    if len(errors) != len(steps) or len(errors) < 2:
        raise ValueError("need matching error/step lists with at least two points")
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = np.log(np.asarray(steps, dtype=float))
        ys = np.log(np.asarray(errors, dtype=float))
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("errors and steps must be positive and finite")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
