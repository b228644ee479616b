"""Output checks, kept outside the timed spans.

Each op's output is compared with an independent reference:

* the geometric series against ``resolvent_differential`` (and ``(I-T)^-1``);
* explicit coefficient lists against ``polynomial_differential`` and an
  exact Horner sum;
* other builtins against ``block_triangular_differential`` (and an
  eigendecomposition for ``g(T)``), or, where the doubled matrix leaves
  the ball or would be too costly (d > 128), against a second algorithm.

References are computed once per op and cached, so repeated passes pay
only for the comparison.  A failure is *known* when it matches one of the
defects named below.  The timed ops stay clear of these defects, so any
failure among them makes the run incorrect; the defect probe must fail
only in known ways.
"""

from __future__ import annotations

import numpy as np

from matseries import (
    OutsideRadiusError,
    block_triangular_differential,
    builtin_series,
    frechet_direct,
    frechet_power_commutant,
    matrix,
    polynomial_differential,
    resolvent_differential,
    series_from_json,
)

#: Relative Frobenius distance an output may have from its reference, on
#: top of the tail bound it reports; ``max_rel_diff`` is the largest
#: relative distance seen among outputs that pass.
RTOL = 1e-8
#: Identities are exact algebra: their scaled residuals are rounding noise.
IDENTITY_TOL = 1e-10
#: Above this d the block-triangular oracle (a 2d x 2d evaluation) is
#: replaced by a second algorithm.
BLOCK_MAX_DIM = 128

_EIG_FNS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "log1p": np.log1p, "atan": np.arctan}

#: A mismatch beyond this is never attributed to a known rounding or
#: truncation defect.
GROSS = 1e-4

KNOWN_ZERO_RUN = "zero-run truncation of a sparse coefficient list (ROADMAP item 4)"
KNOWN_RAISES = "run_request raises on a malformed request (ROADMAP item 4)"
KNOWN_INNER_CUT = ("commutant-form inner series cut without the outer factor, so tail_bound "
                   "is exceeded at large norms (ROADMAP item 2)")


def as_array(x, d: int) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x
    entries = x["entries"]
    if x.get("field") == "complex":
        return np.array([complex(a, b) for a, b in entries]).reshape(d, d)
    return np.array(entries, dtype=float).reshape(d, d)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return 0.0 if scale == 0.0 else float(np.linalg.norm(a - b) / scale)


def ref_value(spec: dict, t: np.ndarray) -> np.ndarray:
    """g(T) without the series machinery."""
    d = t.shape[0]
    if "coeffs" in spec:
        acc = np.zeros((d, d))
        for c in reversed(spec["coeffs"]):
            acc = acc @ t + c * np.eye(d)
        return acc
    name = spec["builtin"]
    if name == "geometric":
        return np.linalg.solve(np.eye(d) - t, np.eye(d))
    w, v = np.linalg.eig(t)
    out = (v * _EIG_FNS[name](w.astype(complex))) @ np.linalg.inv(v)
    return out.real


def ref_differential(spec: dict, t: np.ndarray, h: np.ndarray, algorithm: str) -> tuple[np.ndarray, str]:
    """g'(T)(h) from an oracle, and which oracle gave it."""
    tm, hm = matrix(t), matrix(h)
    if "coeffs" in spec:
        return polynomial_differential(spec["coeffs"], tm, hm).entries, "polynomial"
    if spec["builtin"] == "geometric":
        return resolvent_differential(tm, hm).entries, "resolvent"
    g = builtin_series(spec["builtin"])
    if t.shape[0] <= BLOCK_MAX_DIM:
        try:
            return block_triangular_differential(g, tm, hm).entries, "block-triangular"
        except OutsideRadiusError:
            pass
    second = frechet_power_commutant if algorithm == "direct" else frechet_direct
    return second(g, tm, hm).value.entries, f"second-algorithm:{second.__name__}"


class Checker:
    """Checks outputs against cached references and classifies failures."""

    def __init__(self):
        self._refs: dict = {}
        self.max_rel_diff = 0.0
        self.oracles: dict[str, int] = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _compare(self, got: np.ndarray, want: np.ndarray, tail_bound: float) -> str | None:
        """Within RTOL of the reference, give or take the tail bound the output reports."""
        diff = rel_diff(got, want)
        scale = max(np.linalg.norm(got), np.linalg.norm(want))
        if np.linalg.norm(got - want) <= RTOL * scale + tail_bound:
            self.max_rel_diff = max(self.max_rel_diff, diff)
            return None
        return f"{'gross ' if not diff <= GROSS else ''}oracle mismatch (relative difference {diff:.3g})"

    def differential_ref(self, op, t, h, algorithm):
        key = (id(op), "diff", algorithm == "direct")
        if key not in self._refs:
            ref, oracle = ref_differential(op.series, t, h, algorithm)
            self._refs[key] = ref
            self.oracles[oracle] = self.oracles.get(oracle, 0) + 1
        return self._refs[key]

    def check_results(self, op, results: list[tuple[str, np.ndarray, dict]], extra: dict) -> str | None:
        """Check (algorithm, value, diagnostics) triples; ``extra`` holds report fields."""
        inputs = op.request["inputs"]
        for algorithm, value, diag in results:
            if diag.get("cap_hit"):
                return f"{algorithm}: cap_hit"
        if op.kind == "integral":
            w = as_array(inputs["W"], op.d)
            rhs = self._ref((id(op), "rhs"), lambda: ref_value(op.series, inputs["u2"] * w)
                            - ref_value(op.series, inputs["u1"] * w))
            scaled = extra["residual"] / max(1.0, np.linalg.norm(rhs))
            if not scaled <= RTOL:
                return f"integral residual {extra['residual']:.3g}"
            self.max_rel_diff = max(self.max_rel_diff, scaled)
            return None
        if op.kind == "identities":
            bad = [r["identity"] for r in extra["identities"]
                   if not (r["max_scaled_residual"] <= IDENTITY_TOL
                           and r["trials"] == inputs["trials"])]
            return f"identities failed: {bad}" if bad else None
        if op.kind == "eval":
            t = as_array(inputs["T"], op.d)
            want = self._ref((id(op), "value"), lambda: ref_value(op.series, t))
            return self._compare(results[0][1], want, results[0][2]["tail_bound"])
        if op.kind == "curve":
            coeffs = [as_array(c, op.d) for c in inputs["curve"]["coefficients"]]
            tv = inputs["t"]
            t = coeffs[0] + tv * coeffs[1] + tv * tv * coeffs[2]
            h = coeffs[1] + 2.0 * tv * coeffs[2]
        else:
            t, h = as_array(inputs["T"], op.d), as_array(inputs["h"], op.d)
        for algorithm, value, diag in results:
            ref = self.differential_ref(op, t, h, algorithm)
            why = self._compare(value, ref, diag["tail_bound"])
            if why:
                return f"{algorithm}: {why}"
        if op.kind == "compare":
            expected = {"direct", "commutant", "power-commutant", "derivative-series"}
            if not np.linalg.norm(t) < series_from_json(op.series).radius / 3.0:
                expected.discard("derivative-series")
            if {r[0] for r in results} != expected:
                return f"compare ran {sorted(r[0] for r in results)}"
        return None

    def check_report(self, op, code: int, report) -> str | None:
        """Check one JSON report (request-small, wire-large, cli-startup)."""
        if op.invalid:
            if code == 2 and isinstance(report, dict) and isinstance(report.get("error"), dict):
                return None
            return f"invalid request not rejected (exit {code})"
        if code != 0 or "error" in report:
            return f"exit {code}: {report.get('error')}"
        results = [(r["algorithm"], as_array(r["value"], op.d), r["diagnostics"])
                   for r in report.get("results", [])]
        if op.kind not in ("integral", "identities") and not results:
            return "no results"
        return self.check_results(op, results, report)

    def check_api(self, op, out) -> str | None:
        """Check one direct API result (kernel-large)."""
        if op.kind == "eval":
            value, diag = out
            return self.check_results(op, [("series-eval", value.entries, diag.to_json())], {})
        return self.check_results(op, [(out.algorithm.value, out.value.entries,
                                        out.diagnostics.to_json())], {})


def classify(op, reason: str) -> str | None:
    """The roadmap defect a failure matches, or None when it is unexplained."""
    if reason.startswith("raised") and op.invalid:
        return KNOWN_RAISES
    if op.zero_run and ("oracle mismatch" in reason or reason.startswith("integral residual")):
        return KNOWN_ZERO_RUN
    if reason.startswith(("commutant: oracle", "power-commutant: oracle")):
        return KNOWN_INNER_CUT
    return None
