"""Frechet differentials of matrix power series via commutant expansions.

For ``g(T) = sum_n a_n T^n`` with radius ``R`` and ``norm(T) < R``, the
differential ``g'(T): h -> g'(T)(h)`` (the linear map giving the first
order change of ``g`` at ``T``) can be written in four equivalent ways,
each implemented here as a separate algorithm so they can cross-check one
another:

``direct``
    ``sum_n a_n u_n(T, h)`` with the monomial differential
    ``u_n(T, h) = sum_{p=1..n} T^(n-p) h T^(p-1)``; truncated with the
    first-derivative majorant ``sum n |a_n| s^(n-1)``.

``commutant``
    ``h g'(T) - sum_{p>=0} T^p (hT - Th) G_p(T)`` with
    ``G_p(T) = sum_{m>=0} (m+1) a_(m+p+2) T^m``.

``power-commutant``
    ``h g'(T) - sum_{k>=2} (h T^(k-1) - T^(k-1) h) B_k(T)`` with
    ``B_k(T) = sum_{m>=0} a_(m+k) T^m``.

    Both commutant forms cut their double sums jointly at total degree
    ``n <= N``, so the partial sum is ``sum_{n<=N} a_n u_n(T, h)`` and the
    first-derivative majorant of ``direct`` (same N, same tail bound)
    bounds everything discarded.  They are evaluated by one backward pass
    over ``k = N..1`` with the inner-series recurrences
    ``B_k = a_k I + T B_(k+1)`` and ``G_(k-2) = B_k + T G_(k-1)``, ending at
    ``G_(-1) = g'(T)``; the outer sums fold by Horner in the same pass.

``derivative-series``
    ``sum_{p>=1} (1/p!) g^(p)(T) C(T)^(p-1)(h)`` where ``g^(p)`` is the
    p-th derivative series and ``C(T)(h) = hT - Th``.  This expansion is
    only guaranteed to converge for ``norm(T) < R/3`` (strictly); outside
    that ball it is rejected with :class:`OutsideDerivativeBallError`.
    The whole double sum ``sum_{p, m} binom(m+p, p) a_(m+p) T^m C(T)^(p-1)``
    is truncated jointly over ``m + p <= N`` with N chosen from the
    ``THREE_S`` majorant ``sum_{n>N} |a_n| 3^n s^(n-1)``, which dominates
    every discarded term.

When ``h`` commutes with ``T`` every form collapses to
``sum n a_n h T^(n-1) = g'(T) h``.  Every discarded term is linear in
``h``, so each form reports its majorant times ``norm(h)`` as
``tail_bound``.  Each majorant term is the smaller of the a priori term
in ``s = norm(T)`` and the power-norm term that bounds ``norm(T^m)`` by
``K rho^m`` from the computed ``norm(T T)`` (see :mod:`matseries.series`).

Also here: parametric curves ``t -> T(t)`` with
``d/dt g(T(t)) = sum_p (1/p!) g^(p)(T(t)) C(T(t))^(p-1)(T'(t))``
(again requiring ``norm(T(t)) < R/3``), and the integral identity
``W @ integral_{u1}^{u2} g'(t W) dt = g(u2 W) - g(u1 W)`` checked by
adaptive Simpson quadrature with a tolerance relative to the integrand.  The integrand
``g'(t W)`` is truncated once per check, at the largest argument norm
``max(|u1|, |u2|) norm(W)``, and every quadrature node reuses one stack of
the ``N+1`` powers of ``W / norm(W)`` (``(N+1) d^2`` entries); a term cap
hit there or at either endpoint raises :class:`TermCapError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    DimensionMismatchError,
    FieldMismatchError,
    MatrixElement,
    _check_pair,
    _powers,
    algebra_norm,
)
from .series import (
    BoundKind,
    DEFAULT_POLICY,
    EvalDiagnostics,
    OutsideRadiusError,
    PowerSeries,
    NonFiniteResultError,
    TermCapError,
    TruncationPolicy,
    _check_ball,
    _finite_element,
    _out_field,
    _quiet_overflow,
    _term,
    _truncation_detail,
    derivative_series,
    eval_matrix,
)

__all__ = [
    "Algorithm",
    "DifferentialResult",
    "CompareReport",
    "SkipRecord",
    "PairwiseDifference",
    "MatrixCurve",
    "CurveDomainError",
    "polynomial_curve",
    "monomial_differential",
    "monomial_differential_forms",
    "frechet_direct",
    "frechet_commutant",
    "frechet_power_commutant",
    "frechet_derivative_series",
    "frechet_compare",
    "curve_derivative",
    "integral_identity_check",
    "derivative_series_growth",
    "relative_difference",
]


class CurveDomainError(ValueError):
    """Parameter value outside the curve's open domain interval."""


class Algorithm(enum.Enum):
    DIRECT = "direct"
    COMMUTANT_FORM = "commutant"
    POWER_COMMUTANT_FORM = "power-commutant"
    DERIVATIVE_SERIES_FORM = "derivative-series"


@dataclass(frozen=True)
class DifferentialResult:
    """Value of g'(T)(h) plus which algorithm produced it and how hard it worked."""

    value: MatrixElement
    algorithm: Algorithm
    diagnostics: EvalDiagnostics


@dataclass(frozen=True)
class SkipRecord:
    algorithm: Algorithm
    reason: str


@dataclass(frozen=True)
class PairwiseDifference:
    first: Algorithm
    second: Algorithm
    relative_difference: float


@dataclass(frozen=True)
class CompareReport:
    results: tuple[DifferentialResult, ...]
    skipped: tuple[SkipRecord, ...]
    pairwise: tuple[PairwiseDifference, ...]
    max_relative_difference: float


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def relative_difference(a: MatrixElement, b: MatrixElement) -> float:
    """``norm(a - b) / max(norm(a), norm(b))``; zero when both vanish."""
    na = algebra_norm(a)
    nb = algebra_norm(b)
    scale = max(na, nb)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a.entries - b.entries)) / scale


# ---------------------------------------------------------------------------
# Monomial differentials
# ---------------------------------------------------------------------------

def monomial_differential(n: int, t: MatrixElement, h: MatrixElement) -> MatrixElement:
    """Differential of ``T -> T^n`` at ``T`` applied to ``h``.

    ``u_n(T, h) = sum_{p=1..n} T^(n-p) h T^(p-1)`` with ``u_0 = 0`` and
    ``u_1 = h``.  Satisfies ``norm(u_n(T, h)) <= n norm(T)^(n-1) norm(h)``.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"monomial degree must be a nonnegative integer, got {n!r}")
    ta, ha = _check_pair(t, h)
    if n == 0:
        return MatrixElement(np.zeros_like(ta), t.field)
    if n == 1:
        return h
    pows = _powers(ta, n - 1)
    acc = np.zeros_like(ta)
    for p in range(1, n + 1):
        acc = acc + pows[n - p] @ ha @ pows[p - 1]
    return MatrixElement(acc, t.field)


def monomial_differential_forms(
    n: int, t: MatrixElement, h: MatrixElement
) -> tuple[MatrixElement, MatrixElement, MatrixElement, MatrixElement]:
    """The four equivalent forms of the monomial differential (n >= 2).

    1. direct:          ``sum_p T^(n-p) h T^(p-1)``
    2. power commutant: ``n h T^(n-1) - sum_{k=2..n} (h T^(k-1) - T^(k-1) h) T^(n-k)``
    3. nested commutant: ``sum_{p=1..n} binom(n,p) T^(n-p) C(T)^(p-1)(h)``
    4. single commutant: ``n h T^(n-1) - sum_{s=0..n-2} (n-s-1) T^s (hT - Th) T^(n-2-s)``

    All four agree to rounding; with ``[T, h] = 0`` they all collapse to
    ``n h T^(n-1)``.
    """
    if n < 2:
        raise ValueError(f"the four-form decomposition needs n >= 2, got {n}")
    ta, ha = _check_pair(t, h)
    pows = _powers(ta, n - 1)

    f1 = np.zeros_like(ta)
    for p in range(1, n + 1):
        f1 = f1 + pows[n - p] @ ha @ pows[p - 1]

    lead = n * (ha @ pows[n - 1])
    f2 = lead.copy()
    for k in range(2, n + 1):
        f2 = f2 - (ha @ pows[k - 1] - pows[k - 1] @ ha) @ pows[n - k]

    f3 = np.zeros_like(ta)
    commutant = ha
    for p in range(1, n + 1):
        f3 = f3 + math.comb(n, p) * (pows[n - p] @ commutant)
        if p < n:
            commutant = commutant @ ta - ta @ commutant

    bracket = ha @ ta - ta @ ha
    f4 = lead.copy()
    for s in range(0, n - 1):
        f4 = f4 - (n - s - 1) * (pows[s] @ bracket @ pows[n - 2 - s])

    fld = t.field
    return (MatrixElement(f1, fld), MatrixElement(f2, fld),
            MatrixElement(f3, fld), MatrixElement(f4, fld))


# ---------------------------------------------------------------------------
# The four differential algorithms
# ---------------------------------------------------------------------------

def _differential_setup(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                        policy: TruncationPolicy, kind: BoundKind):
    """Operands in the output dtype, N, and the diagnostics of a differential.

    The majorant of ``kind``, refined by the power norms of ``T``, bounds
    the discarded tail for a unit direction; every discarded term is
    linear in ``h``, so the reported ``tail_bound`` is that majorant times
    ``norm(h)`` (an infinite bound after a cap hit stays infinite).
    """
    ta, ha = _check_pair(t, h)
    s = algebra_norm(t)
    n_stop, tail, cap_hit = _truncation_detail(g, s, policy.tolerance, policy.max_terms, kind, ta)
    if math.isfinite(tail):
        tail *= algebra_norm(h)
    field = _out_field(g, t)
    diag = EvalDiagnostics(terms_used=n_stop, tail_bound=tail, ball_radius_used=s,
                           cap_hit=cap_hit)
    return (ta.astype(field.dtype, copy=False), ha.astype(field.dtype, copy=False),
            field, n_stop, diag)


def frechet_direct(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> DifferentialResult:
    """Differential as the termwise sum ``sum_{n=1..N} a_n u_n(T, h)``.

    N comes from the first-derivative majorant ``sum_{n>N} n |a_n| s^(n-1)``,
    termwise refined to ``K^2 n |a_n| rho^(n-1)`` where that is smaller;
    ``tail_bound`` is that majorant times ``norm(h)``.  The monomial
    differentials are accumulated with the recurrence
    ``u_(n+1)(T, h) = T u_n(T, h) + h T^n`` (two products per term).
    """
    ta, ha, field, n_stop, diag = _differential_setup(g, t, h, policy, BoundKind.FIRST_DERIVATIVE)
    acc = np.zeros_like(ta)
    with _quiet_overflow():
        if n_stop >= 1:
            u = ha
            acc = acc + g.coefficient(1) * u
            tpow = np.eye(ta.shape[0], dtype=ta.dtype)
            for n in range(2, n_stop + 1):
                tpow = tpow @ ta
                u = ta @ u + ha @ tpow
                acc = acc + g.coefficient(n) * u
    return DifferentialResult(_finite_element(acc, field, diag.ball_radius_used),
                              Algorithm.DIRECT, diag)


def frechet_commutant(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> DifferentialResult:
    """Differential in the single-commutant form.

    ``g'(T)(h) = h g'(T) - sum_{p>=0} T^p (hT - Th) G_p(T)`` with
    ``G_p(T) = sum_m (m+1) a_(m+p+2) T^m``.  The double sum is cut jointly
    at total degree ``n <= N``, N from the first-derivative majorant as in
    :func:`frechet_direct`, so the partial sum is ``sum_{n<=N} a_n u_n(T, h)``
    and that majorant bounds everything discarded.  One backward pass over
    ``k = N..1`` builds ``B_k = a_k I + T B_(k+1)``,
    ``G_(k-2) = B_k + T G_(k-1)`` and ``S = C G_(k-2) + T S`` with
    ``C = hT - Th`` (four products per term); it ends at
    ``G_(-1) = g'(T)`` and returns ``h g'(T) - S``.  When ``[T, h] = 0``
    the subtrahend vanishes and only ``h g'(T)`` remains.
    """
    ta, ha, field, n_stop, diag = _differential_setup(g, t, h, policy, BoundKind.FIRST_DERIVATIVE)
    eye = np.eye(ta.shape[0], dtype=ta.dtype)
    b = gk = acc = np.zeros_like(ta)  # B_(k+1), G_(k-1), S
    with _quiet_overflow():
        bracket = ha @ ta - ta @ ha
        for k in range(n_stop, 0, -1):
            b = g.coefficient(k) * eye + ta @ b
            gk = b + ta @ gk
            if k >= 2:
                acc = bracket @ gk + ta @ acc
        value = ha @ gk - acc
    return DifferentialResult(_finite_element(value, field, diag.ball_radius_used),
                              Algorithm.COMMUTANT_FORM, diag)


def frechet_power_commutant(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> DifferentialResult:
    """Differential in the matrix-power commutant form.

    ``g'(T)(h) = h g'(T) - sum_{k>=2} (h T^(k-1) - T^(k-1) h) B_k(T)``
    with ``B_k(T) = sum_m a_(m+k) T^m``, truncated jointly at total degree
    ``n <= N`` exactly like :func:`frechet_commutant`.  The bracket is kept
    literal, ``h (sum T^(k-1) B_k) - sum T^(k-1) h B_k``, with both sums
    folded by Horner in the same backward pass over ``k = N..1``:
    ``sum_{k>=2} T^(k-1) B_k = T G_0`` comes from the ``G`` recurrence and
    ``Q = h B_k + T Q`` gives the second sum as ``T Q`` (four products per
    term).
    """
    ta, ha, field, n_stop, diag = _differential_setup(g, t, h, policy, BoundKind.FIRST_DERIVATIVE)
    eye = np.eye(ta.shape[0], dtype=ta.dtype)
    b = gk = tg = q = np.zeros_like(ta)  # B_(k+1), G_(k-1), T G_(k-1), Q
    with _quiet_overflow():
        for k in range(n_stop, 0, -1):
            b = g.coefficient(k) * eye + ta @ b
            tg = ta @ gk
            gk = b + tg
            if k >= 2:
                q = ha @ b + ta @ q
        # after k = 1: gk = G_(-1) = g'(T) and tg = T G_0 = sum_{k>=2} T^(k-1) B_k
        value = ha @ gk - (ha @ tg - ta @ q)
    return DifferentialResult(_finite_element(value, field, diag.ball_radius_used),
                              Algorithm.POWER_COMMUTANT_FORM, diag)


def _binom_scale(p: int, s: float, count: int) -> np.ndarray:
    """``binom(m+p, p) * s^(m+p-1)`` for m = 0..count-1, overflow hardened."""
    m = np.arange(1, count, dtype=np.float64)
    scale = _term(1.0, s, p - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.cumprod((m + p) / m * s) if count > 1 else np.empty(0)
        base = np.concatenate(([1.0], grow)) * scale
    if np.all(np.isfinite(base)):
        return base
    # rare fallback (huge norms of entire series): log-space, vectorized lgamma
    lg = math.lgamma
    logs = np.array([lg(mm + p + 1) - lg(p + 1) - lg(mm + 1) for mm in range(count)])
    return np.exp(logs + (np.arange(count) + p - 1) * math.log(s))


def frechet_derivative_series(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                              policy: TruncationPolicy = DEFAULT_POLICY) -> DifferentialResult:
    """Differential as the nested-commutant derivative expansion.

    ``g'(T)(h) = sum_{p=1..P} (1/p!) g^(p)(T) K_(p-1)`` with ``K_0 = h``
    and ``K_j = K_(j-1) T - T K_(j-1)``.  Requires ``norm(T) < R/3``
    strictly; otherwise :class:`OutsideDerivativeBallError` is raised (the
    series may diverge there, so no extrapolation is attempted; see
    :func:`derivative_series_growth` for a diagnostic probe).

    Expanding ``(1/p!) g^(p)(T) = sum_m binom(m+p, p) a_(m+p) T^m`` turns
    the whole expression into a double sum over ``(p, m)``; it is truncated
    jointly over ``m + p <= N`` with N from the ``THREE_S`` majorant, which
    dominates everything discarded (termwise refined to
    ``K |a_n| (rho + 2 s)^n / (2 s)`` where that is smaller).
    """
    ta, ha, field, n_stop, diag = _differential_setup(g, t, h, policy, BoundKind.THREE_S)
    s = diag.ball_radius_used
    if n_stop == 0:
        return DifferentialResult(MatrixElement(np.zeros_like(ta), field),
                                  Algorithm.DERIVATIVE_SERIES_FORM, diag)
    if s == 0.0:
        # T is the zero matrix: only the p = 1 term survives.
        return DifferentialResult(MatrixElement(g.coefficient(1) * ha, field),
                                  Algorithm.DERIVATIVE_SERIES_FORM, diag)

    alphas = g.coefficients(n_stop + 1)
    unit = ta / s
    stack = _powers(unit, n_stop - 1)
    acc = np.zeros_like(ta)
    nested = ha  # C(T/s)^(p-1) applied to h
    with _quiet_overflow():
        for p in range(1, n_stop + 1):
            m_count = n_stop - p + 1
            weights = _binom_scale(p, s, m_count) * alphas[p: p + m_count]
            deriv_p = np.tensordot(weights, stack[:m_count], axes=1)
            acc = acc + deriv_p @ nested
            if p < n_stop:
                nested = nested @ unit - unit @ nested
    return DifferentialResult(_finite_element(acc, field, s),
                              Algorithm.DERIVATIVE_SERIES_FORM, diag)


_ALGORITHMS: dict[Algorithm, Callable] = {
    Algorithm.DIRECT: frechet_direct,
    Algorithm.COMMUTANT_FORM: frechet_commutant,
    Algorithm.POWER_COMMUTANT_FORM: frechet_power_commutant,
    Algorithm.DERIVATIVE_SERIES_FORM: frechet_derivative_series,
}


def frechet_compare(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> CompareReport:
    """Run every applicable algorithm and report pairwise relative differences.

    The direct, commutant and power-commutant forms always run (they
    converge on the whole ball ``norm(T) < R``); the derivative-series form
    runs only for ``norm(T) < R/3`` and is otherwise listed as skipped with
    the reason.
    """
    s = algebra_norm(t)
    _check_ball(g, s, BoundKind.VALUE)
    results = [
        frechet_direct(g, t, h, policy),
        frechet_commutant(g, t, h, policy),
        frechet_power_commutant(g, t, h, policy),
    ]
    skipped = []
    if s < g.radius / 3.0:
        results.append(frechet_derivative_series(g, t, h, policy))
    else:
        skipped.append(SkipRecord(
            Algorithm.DERIVATIVE_SERIES_FORM,
            f"norm(T) = {s:.6g} is not below R/3 = {g.radius / 3.0:.6g}; the "
            "nested-commutant derivative expansion is only guaranteed to "
            "converge inside that ball and may diverge outside it",
        ))
    pairwise = []
    worst = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = relative_difference(results[i].value, results[j].value)
            pairwise.append(PairwiseDifference(results[i].algorithm,
                                               results[j].algorithm, d))
            worst = max(worst, d)
    return CompareReport(tuple(results), tuple(skipped), tuple(pairwise), worst)


def derivative_series_growth(g: PowerSeries, t: MatrixElement, h: MatrixElement,
                             max_p: int = 40,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> list[float]:
    """Diagnostic: partial-sum norms of the derivative expansion, no R/3 guard.

    For ``R/3 <= norm(T) < R`` the expansion may diverge; this probe
    evaluates the partial sums anyway (each ``g^(p)(T)`` still converges
    for ``norm(T) < R``) so callers can inspect growth.  Off the normal
    code path on purpose; :func:`frechet_derivative_series` never calls it.
    """
    ta, ha = _check_pair(t, h)
    _check_ball(g, algebra_norm(t), BoundKind.VALUE)
    acc = np.zeros_like(ta.astype(_out_field(g, t).dtype, copy=False))
    nested = ha.astype(acc.dtype, copy=False)
    norms = []
    fact = 1.0
    for p in range(1, max_p + 1):
        fact *= p
        deriv_p, _diag = eval_matrix(derivative_series(g, p), t, policy)
        acc = acc + (deriv_p.entries / fact) @ nested
        norms.append(float(np.linalg.norm(acc)))
        nested = nested @ ta - ta @ nested
    return norms


# ---------------------------------------------------------------------------
# Curves and the integral identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixCurve:
    """Parametric path ``t -> T(t)`` on an open interval.

    ``derivative_at`` may be omitted, in which case the derivative is the
    central finite difference of ``value_at`` with step
    ``max(1e-6, 1e-8 * (1 + |t|))``; an analytic rule always wins when
    available (see :func:`polynomial_curve`).
    """

    value_at: Callable[[float], MatrixElement]
    derivative_at: Callable[[float], MatrixElement] | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)

    def contains(self, t: float) -> bool:
        lo, hi = self.domain
        return lo < t < hi

    def value(self, t: float) -> MatrixElement:
        if not self.contains(t):
            raise CurveDomainError(f"t = {t!r} outside the open domain {self.domain}")
        return self.value_at(t)

    def derivative(self, t: float) -> MatrixElement:
        if not self.contains(t):
            raise CurveDomainError(f"t = {t!r} outside the open domain {self.domain}")
        if self.derivative_at is not None:
            return self.derivative_at(t)
        step = max(1e-6, 1e-8 * (1.0 + abs(t)))
        plus = self.value_at(t + step)
        minus = self.value_at(t - step)
        return MatrixElement((plus.entries - minus.entries) / (2.0 * step), plus.field)


def polynomial_curve(coefficients: list[MatrixElement],
                     domain: tuple[float, float] = (-math.inf, math.inf)) -> MatrixCurve:
    """Curve ``T(t) = sum_i t^i A_i`` with its exact derivative rule."""
    if not coefficients:
        raise ValueError("a polynomial curve needs at least one coefficient matrix")
    first = coefficients[0]
    for c in coefficients[1:]:
        if c.dim != first.dim:
            raise DimensionMismatchError("curve coefficient matrices must share a dimension")
        if c.field is not first.field:
            raise FieldMismatchError("curve coefficient matrices must share a field")
    arrs = [c.entries for c in coefficients]
    field = first.field

    def value_at(t: float) -> MatrixElement:
        acc = arrs[-1]
        for a in reversed(arrs[:-1]):
            acc = acc * t + a
        return MatrixElement(acc, field)

    def derivative_at(t: float) -> MatrixElement:
        if len(arrs) == 1:
            return MatrixElement(np.zeros_like(arrs[0]), field)
        acc = len(arrs[1:]) * arrs[-1]
        for i in range(len(arrs) - 2, 0, -1):
            acc = acc * t + i * arrs[i]
        return MatrixElement(acc, field)

    return MatrixCurve(value_at=value_at, derivative_at=derivative_at, domain=domain)


def curve_derivative(g: PowerSeries, curve: MatrixCurve, t: float,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> MatrixElement:
    """``d/dt g(T(t)) = sum_p (1/p!) g^(p)(T(t)) C(T(t))^(p-1)(T'(t))``.

    Checked pointwise: requires ``t`` inside the curve domain and
    ``norm(T(t)) < R/3``.  When ``[T'(t), T(t)] = 0`` this reduces to
    ``g'(T(t)) T'(t)``.
    """
    value = curve.value(t)
    slope = curve.derivative(t)
    return frechet_derivative_series(g, value, slope, policy).value


def _adaptive_simpson(f: Callable[[float], np.ndarray], a: float, b: float,
                      tol: float, max_depth: int) -> np.ndarray:
    fa, fb = f(a), f(b)
    if a == b:
        return np.zeros_like(fa)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or float(np.linalg.norm(delta)) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


#: Quadrature controls for the integral identity; the integrand is analytic
#: in t, so adaptive Simpson converges fast at desk scale.
_QUAD_TOL = 1e-10
_QUAD_MAX_DEPTH = 30


def _raise_on_cap(cap_hit: bool, policy: TruncationPolicy, s: float) -> None:
    if cap_hit:
        raise TermCapError(f"term cap {policy.max_terms} hit before the tolerance was met "
                          f"at norm(u W) = {s:.6g}")


def integral_identity_check(g: PowerSeries, w: MatrixElement, u1: float, u2: float,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Residual norm of ``W @ integral_{u1}^{u2} g'(t W) dt - (g(u2 W) - g(u1 W))``.

    Both endpoints must satisfy ``|u| * norm(W) < R`` (the admissible
    parameter interval for the ray ``t -> t W``).

    The integrand ``g'(t W)`` is truncated once for the whole check: N
    comes from the value majorant of ``g'`` at ``s_max = max(|u1|, |u2|)
    norm(W)``, refined by the power norms of the matrix ``u_max W``, where
    ``u_max = max(|u1|, |u2|)``.  Every power ``(t W)^n`` of the interval
    is at most ``(u_max W)^n`` in norm, so that N meets the tolerance at
    every node.  The powers ``(W / norm(W))^n``, n = 0..N, are built once,
    an ``(N+1) d^2`` stack, and each node ``t`` is one vector-matrix product
    with the weights ``c_n s_max^n (t / u_max)^n``; weights beyond the
    double range raise :class:`NonFiniteResultError`.  The endpoints
    ``g(u W)`` are evaluated independently by :func:`eval_matrix`.  If the
    scan or either endpoint hits the term cap, :class:`TermCapError` is
    raised rather than returning a truncated residual.

    The integral is computed by adaptive Simpson quadrature on the
    Frobenius norm of the local error estimate, with the tolerance
    ``1e-10 * max(1, norm(g'(u_far W)))`` relative to the integrand at the
    endpoint ``u_far`` with the larger ``|u|`` (one more node product), so
    a large integrand settles as fast as one of norm 1.
    """
    nw = algebra_norm(w)
    if nw == 0.0:
        raise ValueError("W must be nonzero")
    for u in (u1, u2):
        if not abs(u) * nw < g.radius:
            raise OutsideRadiusError(
                f"endpoint {u!r} leaves the admissible interval: |u| norm(W) = "
                f"{abs(u) * nw:.6g} >= R = {g.radius:.6g}"
            )
    dg = derivative_series(g, 1)
    u_max = max(abs(u1), abs(u2))
    s_max = u_max * nw
    n_stop, _tail, cap_hit = _truncation_detail(dg, s_max, policy.tolerance, policy.max_terms,
                                                BoundKind.VALUE, u_max * w.entries)
    _raise_on_cap(cap_hit, policy, s_max)
    field = _out_field(g, w)
    unit = (w.entries / nw).astype(field.dtype, copy=False)
    stack = _powers(unit, n_stop).reshape(n_stop + 1, -1)
    degrees = np.arange(n_stop + 1)
    with _quiet_overflow():
        weights = dg.coefficients(n_stop + 1) * s_max ** degrees
    if not np.isfinite(weights).all():
        raise NonFiniteResultError(f"integrand weights overflow the double range at "
                                   f"norm(u W) = {s_max:.6g}")
    inv_u = 1.0 / u_max if u_max else 0.0

    def integrand(t: float) -> np.ndarray:
        return ((weights * (t * inv_u) ** degrees) @ stack).reshape(unit.shape)

    u_far = u1 if abs(u1) > abs(u2) else u2
    with _quiet_overflow():
        tol = _QUAD_TOL * max(1.0, float(np.linalg.norm(integrand(u_far))))
        integral = _adaptive_simpson(integrand, u1, u2, tol, _QUAD_MAX_DEPTH)
        lhs = w.entries @ integral
        ends = []
        for u in (u2, u1):
            value, diag = eval_matrix(g, MatrixElement(u * w.entries, w.field), policy)
            _raise_on_cap(diag.cap_hit, policy, diag.ball_radius_used)
            ends.append(value.entries)
        return float(np.linalg.norm(lhs - (ends[0] - ends[1])))
