"""Power series with explicit convergence radii and analytic truncation bounds.

A :class:`PowerSeries` is a coefficient rule ``n -> a_n`` plus a radius of
convergence ``R``.  Evaluation at a scalar ``x`` with ``|x| < R`` or at a
matrix ``T`` with ``algebra_norm(T) < R`` truncates the sum at an index
``N`` chosen so that an *analytic majorant* of the discarded tail falls
below the requested tolerance.  Four majorants are supported
(:class:`BoundKind`), each a scalar series in ``s = norm(T)``:

=====================  ===========================================  ==============================================
kind                   a priori term (``norm(T^m) <= s^m``)         power-norm term (``norm(T^m) <= K rho^m``)
=====================  ===========================================  ==============================================
``VALUE``              ``|a_n| s^n``                                ``K |a_n| rho^n``
``FIRST_DERIVATIVE``   ``n |a_n| s^(n-1)``                          ``K^2 n |a_n| rho^(n-1)``
``SECOND_ORDER``       ``n (n-1) |a_n| s^(n-1)``                    (none)
``THREE_S``            ``|a_n| (3 s)^n / s``  (needs ``s < R/3``)    ``K |a_n| (rho + 2 s)^n / (2 s)``
=====================  ===========================================  ==============================================

The first bounds the value tail, the second the tail of the differential
expansion ``sum n a_n ...`` (via ``norm`` of the monomial differential
``<= n s^(n-1)``; the commutant forms cut their double sums at total
degree N, so it bounds them too), the third is a coarser majorant that no
algorithm in the package selects, and the fourth bounds the
nested-commutant derivative expansion, which only converges inside the
smaller ball ``norm(T) < R/3``.

When the matrix ``T`` itself is at hand (every matrix evaluation and
differential), one product gives ``rho = sqrt(min(s^2, norm(fl(T T)) +
gamma s^2))``, with ``gamma = 4 d u / (1 - 4 d u)`` the rounding allowance
of the product and u the unit roundoff, and ``K = s / rho >= 1``.  Then
``norm(T^m) <= K rho^m`` for every ``m >= 1``: even powers are products of
squares and odd ones carry one more factor ``s``.  The power-norm terms
follow: ``norm(T^a h T^b) <= K^2 rho^(a+b) norm(h)`` for the monomial
differential, and ``sum_p binom(n, p) K rho^(n-p) (2 s)^(p-1)`` for the
nested commutators.  The scan takes the termwise minimum of the two
columns, so N never exceeds the a priori N and the reported tail bound
stays a true bound; for a non-normal or strongly decaying ``T``, ``rho``
is far below ``s`` and N falls many-fold.  The scalar paths
(:func:`choose_truncation`, :func:`eval_scalar`) and ``SECOND_ORDER`` use
the a priori column alone, as do matrices whose square or ``s^2`` is not
a finite normal number.  Terms are computed without raising: a power
beyond the float range is taken in log space.

Tails are summed numerically.  An explicit coefficient list
(:func:`from_coefficients`, and the derivative series of one) knows its
last nonzero coefficient, so its scan sums every term up to it and
nothing lies beyond.  For an opaque coefficient rule, terms are
accumulated until they drop below ``tolerance * 1e-3`` and a geometric
remainder estimate (last term times ``r / (1 - r)`` with ``r`` the recent
per-step ratio) is folded in.  Inside the radius the majorant terms decay
geometrically, so the estimate is conservative for
eventually-ratio-decreasing series.  Rules whose support has gaps longer
than twelve consecutive zero terms are treated as finite (polynomial)
series.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import MatrixElement, ScalarField, algebra_norm

__all__ = [
    "SeriesError",
    "OutsideRadiusError",
    "OutsideDerivativeBallError",
    "TermCapError",
    "NonFiniteResultError",
    "BoundKind",
    "TruncationPolicy",
    "EvalDiagnostics",
    "PowerSeries",
    "BUILTIN_NAMES",
    "builtin_series",
    "from_coefficients",
    "series_from_json",
    "derivative_series",
    "radius_estimate",
    "choose_truncation",
    "eval_scalar",
    "eval_matrix",
]

#: Radius estimates above this are reported as effectively infinite.
_RADIUS_INF_CUTOFF = 1e6


class SeriesError(ValueError):
    """Invalid series definition or evaluation request."""


class OutsideRadiusError(SeriesError):
    """Argument norm is not strictly inside the radius of convergence."""


class OutsideDerivativeBallError(OutsideRadiusError):
    """Argument norm is not strictly inside the R/3 ball.

    The nested-commutant derivative expansion is only guaranteed to
    converge for ``norm(T) < R/3``; beyond that the series may diverge,
    so the region is rejected rather than extrapolated.
    """


class TermCapError(SeriesError):
    """The term cap was hit before the tail majorant met the tolerance."""


class NonFiniteResultError(SeriesError):
    """A partial sum overflowed the double range, so it has no finite value to report."""


class BoundKind(enum.Enum):
    VALUE = "value"
    FIRST_DERIVATIVE = "first-derivative"
    SECOND_ORDER = "second-order"
    THREE_S = "three-s"


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule: tolerance, hard term cap, and which tail majorant."""

    tolerance: float = 1e-12
    max_terms: int = 10_000
    bound_kind: BoundKind = BoundKind.VALUE

    def __post_init__(self) -> None:
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise SeriesError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise SeriesError(f"max_terms must be a positive integer, got {self.max_terms!r}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class EvalDiagnostics:
    """What an evaluation actually did.

    ``terms_used`` is the highest series index included in the partial sum,
    ``tail_bound`` the analytic majorant of everything discarded: the sum
    past ``terms_used`` of the termwise minimum of the a priori term and
    the power-norm term built from ``norm(T T)`` (see the module
    docstring); for a differential ``g'(T)(h)``, that majorant times
    ``norm(h)``; infinite when the term cap was hit before the majorant
    scan settled.  ``ball_radius_used`` is ``norm(T)``; ``cap_hit`` is set
    when the tolerance asked for more than ``max_terms`` terms, so N is
    ``max_terms``.  The differential forms cut their double sums jointly
    at total degree ``terms_used``, so that one index describes them all.
    """

    terms_used: int
    tail_bound: float
    ball_radius_used: float
    cap_hit: bool = False

    def to_json(self) -> dict:
        return {
            "terms_used": int(self.terms_used),
            "tail_bound": float(self.tail_bound),
            "ball_radius_used": float(self.ball_radius_used),
            "cap_hit": bool(self.cap_hit),
        }


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Coefficient rule ``n -> a_n`` with radius of convergence ``radius``.

    ``radius`` may be ``math.inf`` for entire functions;
    ``radius_is_estimate`` marks radii recovered from a finite coefficient
    window rather than supplied exactly.  ``_degree`` is set by
    :func:`from_coefficients` and :func:`derivative_series` to the index of
    the last nonzero coefficient of an explicit list, so truncation scans
    stop there exactly; it is ``None`` for an opaque rule.  The series
    itself has no term cap: ``TruncationPolicy.max_terms`` is the only one,
    and the truncation scan of an opaque rule reads only a little past it,
    so a pathological rule cannot loop forever.
    """

    coeff_fn: Callable[[int], complex]
    radius: float
    name: str | None = None
    complex_coefficients: bool = False
    radius_is_estimate: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _degree: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (self.radius > 0):
            raise SeriesError(f"radius of convergence must be positive, got {self.radius!r}")

    def coefficient(self, n: int):
        """Return ``a_n`` (memoized); raises on a negative index or a non-finite value."""
        if n < 0:
            raise SeriesError("coefficient index must be nonnegative")
        c = self._cache.get(n)
        if c is None:
            c = complex(self.coeff_fn(n)) if self.complex_coefficients else float(self.coeff_fn(n))
            if not _finite_scalar(c):
                raise SeriesError(f"coefficient a_{n} is not finite: {c!r}")
            self._cache[n] = c
        return c

    def coefficients(self, count: int) -> np.ndarray:
        """First ``count`` coefficients as a vector."""
        dtype = np.complex128 if self.complex_coefficients else np.float64
        return np.array([self.coefficient(n) for n in range(count)], dtype=dtype)

    def __repr__(self) -> str:
        r = "inf" if math.isinf(self.radius) else f"{self.radius:g}"
        tag = self.name or "<custom>"
        return f"PowerSeries({tag}, radius={r})"


def _finite_scalar(c) -> bool:
    if isinstance(c, complex):
        return math.isfinite(c.real) and math.isfinite(c.imag)
    return math.isfinite(c)


# ---------------------------------------------------------------------------
# Builtin series
# ---------------------------------------------------------------------------

def _exp_coeff(n: int) -> float:
    try:
        return 1.0 / math.factorial(n)
    except OverflowError:
        return 0.0  # below double-precision underflow


def _sin_coeff(n: int) -> float:
    if n % 2 == 0:
        return 0.0
    sign = -1.0 if (n // 2) % 2 else 1.0
    try:
        return sign / math.factorial(n)
    except OverflowError:
        return 0.0


def _cos_coeff(n: int) -> float:
    if n % 2 == 1:
        return 0.0
    sign = -1.0 if (n // 2) % 2 else 1.0
    try:
        return sign / math.factorial(n)
    except OverflowError:
        return 0.0


def _log1p_coeff(n: int) -> float:
    if n == 0:
        return 0.0
    return (1.0 if n % 2 else -1.0) / n


def _atan_coeff(n: int) -> float:
    if n % 2 == 0:
        return 0.0
    return (-1.0 if (n // 2) % 2 else 1.0) / n


_BUILTINS: dict[str, tuple[Callable[[int], float], float]] = {
    "exp": (_exp_coeff, math.inf),
    "sin": (_sin_coeff, math.inf),
    "cos": (_cos_coeff, math.inf),
    "log1p": (_log1p_coeff, 1.0),
    "geometric": (lambda n: 1.0, 1.0),
    "atan": (_atan_coeff, 1.0),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_series(name: str) -> PowerSeries:
    """Maclaurin series of a builtin function with its exact radius.

    Known names: exp, sin, cos, log1p, geometric (``1/(1-x)``), atan.
    """
    try:
        fn, radius = _BUILTINS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise SeriesError(f"unknown builtin series {name!r}; known: {', '.join(BUILTIN_NAMES)}") from None
    return PowerSeries(coeff_fn=fn, radius=radius, name=name)


def from_coefficients(coeffs, radius: float | None = None, name: str | None = None) -> PowerSeries:
    """Series from an explicit coefficient list (zero beyond the list).

    A user-supplied ``radius`` always wins; otherwise it is estimated from
    the tail of the list via :func:`radius_estimate` and flagged
    approximate.  Complex coefficients force the complex field on every
    matrix evaluation result.
    """
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesError("coefficients must be a nonempty one-dimensional sequence")
    is_complex = bool(np.iscomplexobj(arr))
    arr = arr.astype(np.complex128 if is_complex else np.float64)
    if not np.all(np.isfinite(arr)):
        raise SeriesError("coefficients must be finite")
    estimated = radius is None
    r = radius_estimate(arr) if estimated else float(radius)

    def coeff(n: int, _a=arr):
        return _a[n] if n < _a.size else (0j if is_complex else 0.0)

    support = np.flatnonzero(arr)
    return PowerSeries(
        coeff_fn=coeff,
        radius=r,
        name=name,
        complex_coefficients=is_complex,
        radius_is_estimate=estimated,
        _degree=int(support[-1]) if support.size else 0,
    )


def series_from_json(obj) -> PowerSeries:
    """Parse ``{"builtin": name}`` or ``{"coeffs": [...], "radius": r?}``.

    Complex coefficients are given as ``[re, im]`` pairs.
    """
    if not isinstance(obj, dict):
        raise SeriesError("series JSON must be an object")
    if "builtin" in obj:
        return builtin_series(obj["builtin"])
    if "coeffs" not in obj:
        raise SeriesError('series JSON needs either "builtin" or "coeffs"')
    raw = obj["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise SeriesError('"coeffs" must be a nonempty list')
    vals = []
    try:
        for v in raw:
            if isinstance(v, (list, tuple)):
                if not (len(v) == 2 and all(_is_number(c) for c in v)):
                    raise SeriesError("complex coefficients must be [re, im] pairs")
                vals.append(complex(v[0], v[1]))
            elif _is_number(v):
                vals.append(float(v))
            else:
                raise SeriesError(f"bad coefficient {v!r}")
        radius = obj.get("radius")
        if radius is not None and not (_is_number(radius) and radius > 0):
            raise SeriesError(f"radius must be positive, got {radius!r}")
        radius = None if radius is None else float(radius)
    except OverflowError:  # integers beyond the float range
        raise SeriesError("series numbers must be finite") from None
    return from_coefficients(vals, radius=radius)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def derivative_series(g: PowerSeries, p: int = 1) -> PowerSeries:
    """Termwise p-th derivative: coefficients ``b_m = a_(m+p) (m+p)!/m!``.

    The radius is unchanged, and so is a known support: the derivative of
    an explicit list ends p places earlier.  The falling-factorial product
    is applied one integer factor at a time (descending), so
    ``derivative_series(g, p)`` is coefficient-for-coefficient identical to
    composing single derivatives p times.
    """
    if not (isinstance(p, int) and p >= 1):
        raise SeriesError(f"derivative order must be a positive integer, got {p!r}")

    def coeff(m: int, _g=g, _p=p):
        c = _g.coefficient(m + _p)
        for j in range(m + _p, m, -1):
            c = c * j
        return c

    name = None
    if g.name:
        name = f"{g.name}" + "'" * p if p <= 3 else f"{g.name}^({p})"
    return PowerSeries(
        coeff_fn=coeff,
        radius=g.radius,
        name=name,
        complex_coefficients=g.complex_coefficients,
        radius_is_estimate=g.radius_is_estimate,
        _degree=None if g._degree is None else max(g._degree - p, 0),
    )


def radius_estimate(coeffs) -> float:
    """Root-test radius estimate from a finite coefficient window.

    Uses ``1 / max |a_n|^(1/n)`` over the last 20% of the supplied list
    (early coefficients distort the root test).  All-zero input and
    estimates beyond ``1e6`` are reported as ``math.inf``.
    """
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesError("coefficients must be a nonempty one-dimensional sequence")
    mags = np.abs(arr.astype(np.complex128))
    if not mags.any():
        return math.inf
    start = max(0, arr.size - max(1, math.ceil(0.2 * arr.size)))
    idx = np.nonzero(mags[start:])[0] + start
    if idx.size == 0:
        idx = np.nonzero(mags)[0]
    idx = idx[idx >= 1]
    if idx.size == 0:
        return math.inf  # only a constant term
    roots = mags[idx] ** (1.0 / idx)
    est = 1.0 / float(roots.max())
    return math.inf if est > _RADIUS_INF_CUTOFF else est


# ---------------------------------------------------------------------------
# Tail scanning
# ---------------------------------------------------------------------------

_ZERO_RUN_FINITE = 12  # consecutive zero majorant terms treated as series end


def _scan_terms(term_fn: Callable[[int], float], tolerance: float, limit: int):
    """Accumulate majorant terms of an opaque rule until they are negligible.

    Returns ``(terms, remainder, converged)`` where ``remainder`` bounds
    the mass beyond the scanned window (geometric domination from the
    recent per-step ratio).  ``converged=False`` means the window ``limit``
    was exhausted first.
    """
    cut = tolerance * 1e-3
    terms: list[float] = []
    last_val = 0.0
    last_idx = -1
    ratios: deque[float] = deque(maxlen=3)
    zero_run = 0
    for n in range(limit + 1):
        t = term_fn(n)
        terms.append(t)
        if t > 0.0:
            if last_idx >= 0 and last_val > 0.0:
                gap = n - last_idx
                ratios.append((t / last_val) ** (1.0 / gap))
            last_val, last_idx = t, n
            zero_run = 0
            if n >= 8 and t < cut and ratios:
                r = max(ratios)
                if r < 1.0:
                    rem = t * r / (1.0 - r)
                    if rem < cut:
                        return terms, rem, True
        else:
            zero_run += 1
            if zero_run >= _ZERO_RUN_FINITE and n >= 8:
                return terms, 0.0, True
    return terms, math.inf, False


def _smallest_index(terms: list[float], remainder: float, tolerance: float) -> tuple[int, float]:
    """Smallest N with ``sum(terms[N+1:]) + remainder < tolerance``."""
    suffix = remainder
    best_n = len(terms) - 1
    best_tail = suffix
    for n in range(len(terms) - 1, -1, -1):
        if suffix < tolerance:
            best_n, best_tail = n, suffix
        else:
            break
        suffix += terms[n]
    return best_n, best_tail


_SCAN_MARGIN = 64  # extra indices scanned past max_terms to settle convergence


def _term(c: float, base: float, n: int) -> float:
    """``c * base**n`` for ``c, base >= 0``; never raises.

    A Python float power raises ``OverflowError`` past the double range,
    while the product with a small ``c`` can still be finite, so an
    overflowing power is taken in log space (inf only when the term
    itself overflows).
    """
    try:
        return c * base**n
    except OverflowError:
        if c == 0.0:
            return 0.0
        try:
            return math.exp(math.log(c) + n * math.log(base))
        except OverflowError:
            return math.inf


#: Unit roundoff of a double.
_UNIT_ROUNDOFF = 2.0**-53


def _power_bound(ta: np.ndarray | None, s: float) -> tuple[float, float] | None:
    """``(K, rho)`` with ``norm(T^m) <= K rho^m`` for every ``m >= 1``, from one product.

    ``rho = sqrt(min(s^2, norm(fl(T T)) + gamma s^2))`` with
    ``gamma = 4 d u / (1 - 4 d u)``, which covers the rounding of the
    product, and ``K = s / rho``.  ``None`` without a matrix, at ``s = 0``,
    and when ``s^2`` or the square is not finite or ``gamma s^2`` is below
    the normal range (there the rounding allowance no longer holds).
    """
    if ta is None or not s > 0.0:
        return None
    s2 = s * s
    du = 4.0 * ta.shape[0] * _UNIT_ROUNDOFF
    allowance = du / (1.0 - du) * s2
    if not (math.isfinite(s2) and allowance >= np.finfo(np.float64).tiny):
        return None
    with _quiet_overflow():
        square = float(np.linalg.norm(ta @ ta))
    if not math.isfinite(square):
        return None
    rho = math.sqrt(min(s2, square + allowance))
    return s / rho, rho


def _bound_term_fn(g: PowerSeries, s: float, kind: BoundKind,
                   power_bound: tuple[float, float] | None = None) -> Callable[[int], float]:
    """Term n of the ``kind`` majorant at norm s.

    With ``power_bound = (K, rho)`` from :func:`_power_bound`, the termwise
    minimum of the a priori term and the power-norm term (the two columns
    of the module docstring's table); ``SECOND_ORDER`` has no power-norm
    term.
    """
    # 0**0 == 1 throughout, so the s == 0 cases come out right.
    if kind is BoundKind.VALUE:
        prior = lambda n, c: _term(c, s, n)
    elif kind is BoundKind.FIRST_DERIVATIVE:
        prior = lambda n, c: n * _term(c, s, n - 1) if n else 0.0
    elif kind is BoundKind.SECOND_ORDER:
        prior = lambda n, c: n * (n - 1) * _term(c, s, n - 1) if n >= 2 else 0.0
    elif kind is BoundKind.THREE_S:
        # 3^n s^(n-1), written to avoid overflow of 3^n alone.
        prior = lambda n, c: _term(3.0 * c, 3.0 * s, n - 1) if n else 0.0
    else:
        raise SeriesError(f"unknown bound kind {kind!r}")
    coefficient = g.coefficient
    if power_bound is None or kind is BoundKind.SECOND_ORDER:
        return lambda n: prior(n, abs(coefficient(n)))
    k, rho = power_bound
    if kind is BoundKind.VALUE:
        post = lambda n, c: _term(k * c, rho, n)
    elif kind is BoundKind.FIRST_DERIVATIVE:
        post = lambda n, c: n * _term(k * k * c, rho, n - 1) if n else 0.0
    else:
        post = lambda n, c: _term(k * c / (2.0 * s), rho + 2.0 * s, n) if n else 0.0

    def term(n: int) -> float:
        c = abs(coefficient(n))
        return min(prior(n, c), post(n, c))

    return term


def _check_ball(g: PowerSeries, s: float, kind: BoundKind) -> None:
    if s < 0 or not math.isfinite(s):
        raise SeriesError(f"ball radius must be finite and nonnegative, got {s!r}")
    if kind is BoundKind.THREE_S:
        if not s < g.radius / 3.0:
            raise OutsideDerivativeBallError(
                f"norm {s:.6g} is not inside the R/3 ball (R/3 = {g.radius / 3.0:.6g})"
            )
    elif not s < g.radius:
        raise OutsideRadiusError(
            f"norm {s:.6g} is not inside the radius of convergence {g.radius:.6g}"
        )


def _truncation_detail(g: PowerSeries, s: float, tolerance: float, max_terms: int,
                       kind: BoundKind, ta: np.ndarray | None = None) -> tuple[int, float, bool]:
    """``(N, tail_bound, cap_hit)``: the smallest N whose ``kind`` majorant tail is below tolerance.

    The one truncation path of the package.  The ball check uses ``s``
    alone.  When the matrix ``ta`` (norm ``s``) is given, each majorant
    term is the minimum of the a priori term and the power-norm term from
    ``norm(T T)`` (:func:`_power_bound`), so N and the tail bound are never
    larger than without it and the tail bound stays rigorous.  An explicit
    list is scanned to its last nonzero coefficient, however long, and has
    nothing beyond it, so its cost is proportional to its length.  An
    opaque rule is scanned by :func:`_scan_terms` up to index
    ``max_terms + _SCAN_MARGIN``, a little past the cap so that a tight cap
    on a fast series still settles.  ``max_terms`` is the only term cap: if
    N would exceed it, N is ``max_terms``, ``cap_hit`` is set and the tail
    bound is what the cap leaves (exact for a list; infinite when the scan
    of an opaque rule did not settle).
    """
    _check_ball(g, s, kind)
    term_fn = _bound_term_fn(g, s, kind, _power_bound(ta, s))
    if g._degree is not None:
        terms = [term_fn(n) for n in range(g._degree + 1)]
        remainder = 0.0
    else:
        terms, remainder, converged = _scan_terms(term_fn, tolerance, max_terms + _SCAN_MARGIN)
        if not converged:
            return max_terms, math.inf, True
    n, tail = _smallest_index(terms, remainder, tolerance)
    if n > max_terms:
        return max_terms, remainder + math.fsum(terms[max_terms + 1:]), True
    return n, tail, False


def choose_truncation(g: PowerSeries, s: float, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Smallest truncation index N whose selected tail majorant is below tolerance.

    Raises :class:`OutsideRadiusError` when ``s >= radius`` (or, for the
    ``THREE_S`` bound, :class:`OutsideDerivativeBallError` when
    ``s >= radius/3``).  If the term cap is hit first, ``max_terms`` is
    returned; callers see that through evaluation diagnostics rather than
    an exception.  Only the norm is known here, so this is the a priori
    majorant of the module docstring's table.
    """
    n, _tail, _cap = _truncation_detail(g, s, policy.tolerance, policy.max_terms, policy.bound_kind)
    return n


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_scalar(g: PowerSeries, x, policy: TruncationPolicy = DEFAULT_POLICY):
    """Partial sum of ``g`` at a scalar with the value tail below tolerance."""
    mag = abs(x)
    n_stop, _tail, cap_hit = _truncation_detail(g, mag, policy.tolerance, policy.max_terms,
                                                BoundKind.VALUE)
    if cap_hit:
        raise TermCapError(
            f"term cap {policy.max_terms} hit before the tolerance was met at |x| = {mag:.6g}"
        )
    acc = g.coefficient(0) * (x**0)
    xn = 1.0
    for n in range(1, n_stop + 1):
        xn = xn * x
        acc = acc + g.coefficient(n) * xn
    return acc


def eval_matrix(g: PowerSeries, t: MatrixElement,
                policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[MatrixElement, EvalDiagnostics]:
    """Evaluate ``g(T) = sum a_n T^n`` with the value tail below tolerance.

    Requires ``algebra_norm(T) < radius`` (strict; the boundary is
    rejected).  Returns the partial sum and the diagnostics describing the
    truncation actually used; N comes from the termwise minimum of the a
    priori and the power-norm value majorants.  The result field is complex
    when either the matrix or the coefficients are complex.  Raises
    :class:`NonFiniteResultError` when the partial sum overflows.
    """
    s = algebra_norm(t)
    n_stop, tail, cap_hit = _truncation_detail(g, s, policy.tolerance, policy.max_terms,
                                               BoundKind.VALUE, t.entries)
    out_field = _out_field(g, t)
    with _quiet_overflow():
        arr = _eval_matrix_partial(g, t.entries.astype(out_field.dtype, copy=False), n_stop)
    diag = EvalDiagnostics(
        terms_used=n_stop,
        tail_bound=tail,
        ball_radius_used=s,
        cap_hit=cap_hit,
    )
    return _finite_element(arr, out_field, s), diag


def _out_field(g: PowerSeries, t: MatrixElement) -> ScalarField:
    """Field of a result at ``t``: complex when the matrix or the coefficients are."""
    if t.field is ScalarField.COMPLEX or g.complex_coefficients:
        return ScalarField.COMPLEX
    return ScalarField.REAL


def _quiet_overflow() -> np.errstate:
    """Silence numpy's overflow warnings in a partial sum; :func:`_finite_element` reports it."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite_element(arr: np.ndarray, field: ScalarField, s: float) -> MatrixElement:
    """``arr`` as a result matrix; :class:`NonFiniteResultError` if a partial sum at norm s overflowed."""
    if not np.isfinite(arr).all():
        raise NonFiniteResultError(
            f"the partial sum overflowed the double range at norm(T) = {s:.6g}"
        )
    return MatrixElement(arr, field)


def _eval_matrix_partial(g: PowerSeries, ta: np.ndarray, n_stop: int) -> np.ndarray:
    dim = ta.shape[0]
    eye = np.eye(dim, dtype=ta.dtype)
    acc = g.coefficient(0) * eye
    power = eye
    for n in range(1, n_stop + 1):
        power = power @ ta
        acc = acc + g.coefficient(n) * power
    return acc
