"""Executable algebraic identities behind the commutant expansions.

Each function returns the two sides of one identity so callers (and the
test suite) can measure the residual directly.  With the bracket
``[A, B] = A B - B A`` and ``C(T)(h) = h T - T h``:

* product rule for brackets:
  ``[A_1 ... A_(n+1), B] = sum_s (A_1..A_s) [A_(s+1), B] (A_(s+2)..A_(n+1))``
* power decomposition:
  ``C(T^(n+1))(h) = sum_{s=0..n} T^s (h T - T h) T^(n-s)``
* nested power as a binomial sum:
  ``C(T)^n(h) = sum_k (-1)^k binom(n, k) T^k h T^(n-k)``
* hockey-stick binomial sum (exact integers):
  ``sum_{p=s..n} binom(p-1, s-1) = binom(n, s)``
* operator sum:
  ``sum_{p=1..n} binom(n, p) T^(n-p) C(T)^(p-1)(h) = sum_{s=1..n} T^(n-s) h T^(s-1)``

Residuals of the matrix identities are pure rounding noise; they are
compared against a tolerance scaled by ``1 + product of input norms``
since raw residuals grow with the operand magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DimensionMismatchError,
    MatrixElement,
    ScalarField,
    _powers,
    algebra_norm,
    apply_commutant_power,
)

__all__ = [
    "IdentityReport",
    "IDENTITY_NAMES",
    "product_commutator_expansion",
    "power_commutant_decomposition",
    "commutant_power_binomial",
    "binomial_sum_identity",
    "operator_sum_identity",
    "run_identity_suite",
]

IDENTITY_NAMES = (
    "product_commutator_expansion",
    "power_commutant_decomposition",
    "commutant_power_binomial",
    "operator_sum_identity",
    "binomial_sum_identity",
)


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case residual of one identity over a batch of random trials.

    ``max_abs_residual`` is the raw Frobenius norm of (lhs - rhs);
    ``max_scaled_residual`` divides each trial's residual by
    ``1 + product of that trial's input norms`` before taking the maximum.
    ``worst_case_inputs`` holds the serialized matrices of the worst trial.
    """

    identity_name: str
    max_abs_residual: float
    trials: int
    worst_case_inputs: dict | None = None
    max_scaled_residual: float = 0.0

    def to_json(self) -> dict:
        out = {
            "identity": self.identity_name,
            "max_abs_residual": float(self.max_abs_residual),
            "max_scaled_residual": float(self.max_scaled_residual),
            "trials": int(self.trials),
        }
        if self.worst_case_inputs is not None:
            out["worst_case"] = self.worst_case_inputs
        return out


def product_commutator_expansion(
    a_list: list[MatrixElement], b: MatrixElement
) -> tuple[MatrixElement, MatrixElement]:
    """Bracket of a product versus its telescoping expansion.

    lhs = ``[A_1 ... A_m, B]``; rhs expands the bracket across the factors,
    with empty prefix/suffix products read as the identity.  Needs at least
    two factors.
    """
    if len(a_list) < 2:
        raise ValueError("need at least two product factors")
    dim = b.dim
    for a in a_list:
        if a.dim != dim:
            raise DimensionMismatchError("all factors must match the bracket operand")
        if a.field is not b.field:
            raise ValueError("all factors must share the bracket operand's field")
    arrs = [a.entries for a in a_list]
    ba = b.entries

    prod = arrs[0]
    for a in arrs[1:]:
        prod = prod @ a
    lhs = prod @ ba - ba @ prod

    # prefix[s] = A_1 .. A_s, suffix[s] = A_(s+1) .. A_m (identity at the ends)
    eye = np.eye(dim, dtype=prod.dtype)
    prefix = [eye]
    for a in arrs:
        prefix.append(prefix[-1] @ a)
    suffix = [eye]
    for a in reversed(arrs):
        suffix.append(a @ suffix[-1])
    suffix.reverse()

    rhs = np.zeros_like(prod)
    for s in range(len(arrs)):
        bracket = arrs[s] @ ba - ba @ arrs[s]
        rhs = rhs + prefix[s] @ bracket @ suffix[s + 1]
    return MatrixElement(lhs, b.field), MatrixElement(rhs, b.field)


def power_commutant_decomposition(
    t: MatrixElement, h: MatrixElement, n: int
) -> tuple[MatrixElement, MatrixElement]:
    """``C(T^(n+1))(h)`` versus ``sum_{s=0..n} T^s (hT - Th) T^(n-s)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ta, ha = t.entries, h.entries
    pows = _powers(ta, n + 1)
    lhs = ha @ pows[n + 1] - pows[n + 1] @ ha
    bracket = ha @ ta - ta @ ha
    rhs = np.zeros_like(ta)
    for s in range(n + 1):
        rhs = rhs + pows[s] @ bracket @ pows[n - s]
    return MatrixElement(lhs, t.field), MatrixElement(rhs, t.field)


def commutant_power_binomial(
    t: MatrixElement, h: MatrixElement, n: int
) -> tuple[MatrixElement, MatrixElement]:
    """Nested ``C(T)^n(h)`` versus ``sum_k (-1)^k binom(n,k) T^k h T^(n-k)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = apply_commutant_power(t, h, n)
    ta, ha = t.entries, h.entries
    pows = _powers(ta, n)
    rhs = np.zeros_like(ta)
    for k in range(n + 1):
        sign = -1.0 if k % 2 else 1.0
        rhs = rhs + sign * math.comb(n, k) * (pows[k] @ ha @ pows[n - k])
    return lhs, MatrixElement(rhs, t.field)


def binomial_sum_identity(n: int, s: int) -> tuple[int, int]:
    """Hockey-stick sum ``sum_{p=s..n} binom(p-1, s-1)`` versus ``binom(n, s)``.

    Exact integer arithmetic on both sides.
    """
    if not (1 <= s <= n):
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    lhs = sum(math.comb(p - 1, s - 1) for p in range(s, n + 1))
    rhs = math.comb(n, s)
    return lhs, rhs


def operator_sum_identity(
    t: MatrixElement, h: MatrixElement, n: int
) -> tuple[MatrixElement, MatrixElement]:
    """``sum_p binom(n,p) T^(n-p) C(T)^(p-1)(h)`` versus ``sum_s T^(n-s) h T^(s-1)``."""
    if n < 1:
        raise ValueError("n must be positive")
    ta, ha = t.entries, h.entries
    pows = _powers(ta, n - 1)
    lhs = np.zeros_like(ta)
    nested = ha
    for p in range(1, n + 1):
        lhs = lhs + math.comb(n, p) * (pows[n - p] @ nested)
        if p < n:
            nested = nested @ ta - ta @ nested
    rhs = np.zeros_like(ta)
    for s in range(1, n + 1):
        rhs = rhs + pows[n - s] @ ha @ pows[s - 1]
    return MatrixElement(lhs, t.field), MatrixElement(rhs, t.field)


def _random_matrix(rng: np.random.Generator, dim: int, field: ScalarField) -> MatrixElement:
    re = rng.uniform(-1.0, 1.0, size=(dim, dim))
    if field is ScalarField.REAL:
        return MatrixElement(re, field)
    im = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return MatrixElement(re + 1j * im, field)


def run_identity_suite(trials: int, dim: int, seed: int,
                       field: ScalarField = ScalarField.REAL) -> list[IdentityReport]:
    """Run all five identities on seeded random matrices.

    Entries are uniform in [-1, 1] (both parts for the complex field) and
    deliberately not normalized; the identities are exact algebra, so any
    residual is floating-point noise.  Deterministic for a fixed seed.
    """
    if trials < 1 or dim < 1:
        raise ValueError("trials and dim must be at least 1")
    rng = np.random.default_rng(seed)

    worst_abs = dict.fromkeys(IDENTITY_NAMES, 0.0)
    worst_scaled = dict.fromkeys(IDENTITY_NAMES, 0.0)
    worst_inputs: dict[str, dict | None] = dict.fromkeys(IDENTITY_NAMES, None)

    def record(name: str, lhs, rhs, inputs: dict[str, MatrixElement], scale: float) -> None:
        resid = float(np.linalg.norm(lhs.entries - rhs.entries))
        scaled = resid / scale
        if resid > worst_abs[name]:
            worst_abs[name] = resid
        if scaled >= worst_scaled[name]:
            worst_scaled[name] = scaled
            worst_inputs[name] = {k: v.to_json() for k, v in inputs.items()}

    for _ in range(trials):
        factors = [_random_matrix(rng, dim, field) for _ in range(int(rng.integers(2, 5)))]
        b = _random_matrix(rng, dim, field)
        lhs, rhs = product_commutator_expansion(factors, b)
        scale = 1.0 + math.prod(algebra_norm(a) for a in factors) * algebra_norm(b)
        inputs = {f"A{i + 1}": a for i, a in enumerate(factors)}
        inputs["B"] = b
        record("product_commutator_expansion", lhs, rhs, inputs, scale)

        t = _random_matrix(rng, dim, field)
        h = _random_matrix(rng, dim, field)
        pair_scale = 1.0 + algebra_norm(t) * algebra_norm(h)
        n = int(rng.integers(0, 7))
        lhs, rhs = power_commutant_decomposition(t, h, n)
        record("power_commutant_decomposition", lhs, rhs, {"T": t, "h": h}, pair_scale)

        n = int(rng.integers(0, 7))
        lhs, rhs = commutant_power_binomial(t, h, n)
        record("commutant_power_binomial", lhs, rhs, {"T": t, "h": h}, pair_scale)

        n = int(rng.integers(1, 9))
        lhs, rhs = operator_sum_identity(t, h, n)
        record("operator_sum_identity", lhs, rhs, {"T": t, "h": h}, pair_scale)

        n = int(rng.integers(1, 41))
        s = int(rng.integers(1, n + 1))
        li, ri = binomial_sum_identity(n, s)
        resid = float(abs(li - ri))
        worst_abs["binomial_sum_identity"] = max(worst_abs["binomial_sum_identity"], resid)
        worst_scaled["binomial_sum_identity"] = max(worst_scaled["binomial_sum_identity"], resid)

    return [
        IdentityReport(
            identity_name=name,
            max_abs_residual=worst_abs[name],
            trials=trials,
            worst_case_inputs=worst_inputs[name],
            max_scaled_residual=worst_scaled[name],
        )
        for name in IDENTITY_NAMES
    ]
