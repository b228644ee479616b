"""Command-line front end: JSON matrices and series in, JSON reports out.

Commands: eval, diff, compare, curve, integral, identities.  Matrices use
``{"dim", "field", "entries"}`` (row-major, complex entries as ``[re, im]``
pairs); series use ``{"builtin": name}`` or ``{"coeffs": [...], "radius": r}``.

Reports are serialized deterministically: object keys sorted, floats in
fixed 17-significant-digit scientific notation, so identical requests give
byte-identical output.  Exit codes: 0 success, 2 validation error (bad
input, radius violation), 3 numerical failure (term cap exceeded before
the tolerance was met, or a partial sum overflowed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .algebra import AlgebraError, MatrixElement, ScalarField
from .frechet import (
    _ALGORITHMS,
    Algorithm,
    CompareReport,
    CurveDomainError,
    DifferentialResult,
    frechet_compare,
    frechet_derivative_series,
    integral_identity_check,
    polynomial_curve,
)
from .identities import run_identity_suite
from .series import (
    EvalDiagnostics,
    NonFiniteResultError,
    OutsideDerivativeBallError,
    OutsideRadiusError,
    SeriesError,
    TermCapError,
    TruncationPolicy,
    eval_matrix,
    series_from_json,
)

__all__ = ["main", "run_request", "dumps_stable"]

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3

_ALGORITHM_NAMES = sorted(a.value for a in Algorithm)


class _RequestError(Exception):
    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    # 17 significant digits in scientific notation round-trips any double
    # and keeps golden files byte-stable.  JSON has no literal for
    # non-finite values, so those become strings ("inf" marks an unmet
    # tail bound after a cap hit).
    x = float(x)
    if math.isfinite(x):
        return format(x, ".16e")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def dumps_stable(obj) -> str:
    """JSON with sorted keys and fixed-width float formatting."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string report key {key!r}")
            parts.append(json.dumps(key))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# ---------------------------------------------------------------------------
# Request execution
# ---------------------------------------------------------------------------

def _policy_from(request: dict) -> TruncationPolicy:
    pol = request.get("policy", {})
    if not isinstance(pol, dict):
        raise _RequestError("invalid_input", "policy must be an object")
    tol = pol.get("tolerance", 1e-12)
    cap = pol.get("max_terms", 10_000)
    try:
        return TruncationPolicy(tolerance=float(tol), max_terms=int(cap))
    except (SeriesError, TypeError, ValueError, OverflowError) as exc:
        raise _RequestError("invalid_input", f"bad policy: {exc}") from None


def _series_from(request: dict):
    try:
        return series_from_json(request["series"])
    except KeyError:
        raise _RequestError("invalid_input", "request needs a series") from None
    except SeriesError as exc:
        code = "unknown_series" if "unknown builtin" in str(exc) else "invalid_input"
        raise _RequestError(code, str(exc)) from None


def _matrix_from(inputs: dict, key: str) -> MatrixElement:
    if key not in inputs:
        raise _RequestError("invalid_input", f"request needs matrix {key!r}")
    try:
        return MatrixElement.from_json(inputs[key])
    except AlgebraError as exc:
        raise _RequestError("invalid_input", f"bad matrix {key!r}: {exc}") from None


def _number_from(inputs: dict, key: str) -> float:
    if key not in inputs:
        raise _RequestError("invalid_input", f"request needs inputs.{key}")
    try:
        return float(inputs[key])
    except (TypeError, ValueError, OverflowError):
        raise _RequestError("invalid_input",
                            f"inputs.{key} must be a number, got {inputs[key]!r}") from None


def _result_entry(algorithm: str, value: MatrixElement, diag: EvalDiagnostics) -> dict:
    return {
        "algorithm": algorithm,
        "value": value.to_json(),
        "diagnostics": diag.to_json(),
    }


def _differential_entry(res: DifferentialResult) -> dict:
    return _result_entry(res.algorithm.value, res.value, res.diagnostics)


def _compare_payload(report: CompareReport) -> tuple[list, list, list]:
    results = [_differential_entry(r) for r in report.results]
    skipped = [{"algorithm": s.algorithm.value, "reason": s.reason} for s in report.skipped]
    pairwise = [
        {
            "first": p.first.value,
            "second": p.second.value,
            "relative_difference": p.relative_difference,
        }
        for p in report.pairwise
    ]
    return results, skipped, pairwise


def _check_caps(report: dict, entries: list[dict]) -> int:
    for entry in entries:
        diag = entry["diagnostics"]
        if diag["cap_hit"]:
            report["error"] = {
                "error": "cap_exceeded",
                "detail": (
                    f"algorithm {entry['algorithm']!r} hit the term cap before "
                    "meeting the tolerance"
                ),
            }
            return _EXIT_NUMERICAL
    return _EXIT_OK


_COMMANDS = ("eval", "diff", "compare", "curve", "integral", "identities")


def run_request(request) -> tuple[int, dict]:
    """Execute one serialized request; returns (exit_code, report dict).

    Never raises on user errors, whatever JSON value ``request`` is: they
    come back as exit code 2 with an ``{"error": code, "detail": text}``
    object in the report.  Numerical failures come back the same way with
    exit code 3: ``cap_exceeded`` for a term cap hit, ``overflow`` for a
    partial sum beyond the double range.
    """
    command = request.get("command") if isinstance(request, dict) else None
    try:
        if not isinstance(request, dict):
            raise _RequestError("invalid_input",
                                f"a request must be a JSON object, got {type(request).__name__}")
        if not isinstance(command, str) or command not in _COMMANDS:
            raise _RequestError("invalid_input", f"unknown command {command!r}")
        report: dict = {"command": command}
        code = _dispatch(command, request, report)
        return code, report
    except _RequestError as exc:
        error = {"error": exc.code, "detail": exc.detail}
    except (TermCapError, NonFiniteResultError) as exc:
        kind = "cap_exceeded" if isinstance(exc, TermCapError) else "overflow"
        return _EXIT_NUMERICAL, {"command": command, "error": {"error": kind, "detail": str(exc)}}
    except OutsideDerivativeBallError as exc:
        error = {"error": "outside_derivative_ball", "detail": str(exc)}
    except OutsideRadiusError as exc:
        error = {"error": "outside_radius", "detail": str(exc)}
    except (AlgebraError, SeriesError, CurveDomainError, ValueError) as exc:
        error = {"error": "invalid_input", "detail": str(exc)}
    return _EXIT_VALIDATION, {"command": command, "error": error}


def _dispatch(command: str, request: dict, report: dict) -> int:
    policy = _policy_from(request)
    inputs = request.get("inputs", {})
    if not isinstance(inputs, dict):
        raise _RequestError("invalid_input", "inputs must be an object")

    if command == "identities":
        trials = inputs.get("trials", 100)
        dim = inputs.get("dim", 4)
        seed = inputs.get("seed", 0)
        field_tag = inputs.get("field", "real")
        try:
            field = ScalarField(field_tag)
        except ValueError:
            raise _RequestError("invalid_input", f"unknown field tag {field_tag!r}") from None
        try:
            reports = run_identity_suite(int(trials), int(dim), int(seed), field)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _RequestError("invalid_input", str(exc)) from None
        report["identities"] = [r.to_json() for r in reports]
        report["results"] = []
        return _EXIT_OK

    series = _series_from(request)

    if command == "eval":
        t = _matrix_from(inputs, "T")
        value, diag = eval_matrix(series, t, policy)
        entry = _result_entry("series-eval", value, diag)
        report["results"] = [entry]
        return _check_caps(report, [entry])

    if command == "diff":
        t = _matrix_from(inputs, "T")
        h = _matrix_from(inputs, "h")
        algo = inputs.get("algorithm", "direct")
        if algo == "all":
            compare = frechet_compare(series, t, h, policy)
            results, skipped, _pairwise = _compare_payload(compare)
            report["results"] = results
            report["skipped"] = skipped
            return _check_caps(report, results)
        if algo not in _ALGORITHM_NAMES:
            raise _RequestError(
                "invalid_input",
                f"unknown algorithm {algo!r}; choose from "
                f"{_ALGORITHM_NAMES} or 'all'",
            )
        res = _ALGORITHMS[Algorithm(algo)](series, t, h, policy)
        entry = _differential_entry(res)
        report["results"] = [entry]
        return _check_caps(report, [entry])

    if command == "compare":
        t = _matrix_from(inputs, "T")
        h = _matrix_from(inputs, "h")
        compare = frechet_compare(series, t, h, policy)
        results, skipped, pairwise = _compare_payload(compare)
        report["results"] = results
        report["skipped"] = skipped
        report["comparisons"] = pairwise
        report["max_relative_difference"] = compare.max_relative_difference
        return _check_caps(report, results)

    if command == "curve":
        curve_obj = inputs.get("curve", {})
        coeff_objs = curve_obj.get("coefficients") if isinstance(curve_obj, dict) else None
        if not isinstance(coeff_objs, list) or not coeff_objs:
            raise _RequestError("invalid_input",
                                "curve requests need inputs.curve.coefficients")
        try:
            mats = [MatrixElement.from_json(o) for o in coeff_objs]
            curve = polynomial_curve(mats)
        except AlgebraError as exc:
            raise _RequestError("invalid_input", f"bad curve coefficient: {exc}") from None
        t_val = _number_from(inputs, "t")
        point = curve.value(t_val)
        slope = curve.derivative(t_val)
        res = frechet_derivative_series(series, point, slope, policy)
        entry = _differential_entry(res)
        report["results"] = [entry]
        report["t"] = t_val
        return _check_caps(report, [entry])

    if command == "integral":
        w = _matrix_from(inputs, "W")
        u1 = _number_from(inputs, "u1")
        u2 = _number_from(inputs, "u2")
        residual = integral_identity_check(series, w, u1, u2, policy)
        report["results"] = []
        report["residual"] = residual
        report["u1"] = u1
        report["u2"] = u2
        return _EXIT_OK

    raise _RequestError("invalid_input", f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------

def _load_json_arg(text: str, what: str):
    """JSON from the file that ``text`` names or, when it names no readable file, ``text`` itself."""
    try:
        raw, source = Path(text).read_text(), f"file {text!r}"
    except (OSError, UnicodeDecodeError):  # also a name too long to be a path: inline JSON
        raw, source = text, "argument, which names no readable file,"
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _RequestError("malformed_json", f"the {what} {source} is not JSON: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matseries",
        description="Evaluate matrix power series and their Frechet differentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_series=True) -> None:
        if needs_series:
            p.add_argument("--series", required=True,
                           help="series JSON (a file path or inline JSON)")
        p.add_argument("--tol", type=float, default=1e-12, help="truncation tolerance")
        p.add_argument("--max-terms", type=int, default=10_000, help="term cap")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate g(T)")
    common(p_eval)
    p_eval.add_argument("--matrix-T", required=True, help="matrix JSON file for T")

    p_diff = sub.add_parser("diff", help="compute the differential g'(T)(h)")
    common(p_diff)
    p_diff.add_argument("--matrix-T", required=True, help="matrix JSON file for T")
    p_diff.add_argument("--matrix-h", required=True, help="matrix JSON file for h")
    p_diff.add_argument("--algorithm", default="direct",
                        choices=_ALGORITHM_NAMES + ["all"])

    p_cmp = sub.add_parser("compare", help="run all four algorithms and cross-compare")
    common(p_cmp)
    p_cmp.add_argument("--matrix-T", required=True, help="matrix JSON file for T")
    p_cmp.add_argument("--matrix-h", required=True, help="matrix JSON file for h")

    p_curve = sub.add_parser("curve", help="d/dt g(T(t)) along a polynomial curve")
    common(p_curve)
    p_curve.add_argument("--curve", required=True,
                         help="poly:<file0>,<file1>,... coefficient matrices of T(t)")
    p_curve.add_argument("--t", type=float, required=True, help="parameter value")

    p_int = sub.add_parser("integral",
                           help="residual of W*int_{u1}^{u2} g'(tW) dt = g(u2 W) - g(u1 W)")
    common(p_int)
    p_int.add_argument("--W", required=True, help="matrix JSON file for W")
    p_int.add_argument("--u1", type=float, required=True)
    p_int.add_argument("--u2", type=float, required=True)

    p_id = sub.add_parser("identities", help="run the random identity suite")
    common(p_id, needs_series=False)
    p_id.add_argument("--trials", type=int, default=100)
    p_id.add_argument("--dim", type=int, default=4)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--field", default="real", choices=["real", "complex"])
    return parser


def _request_from_args(args: argparse.Namespace) -> dict:
    request: dict = {
        "command": args.command,
        "policy": {"tolerance": args.tol, "max_terms": args.max_terms},
        "inputs": {},
    }
    if args.command == "identities":
        request["inputs"] = {
            "trials": args.trials,
            "dim": args.dim,
            "seed": args.seed,
            "field": args.field,
        }
        return request

    request["series"] = _load_json_arg(args.series, "series")
    if args.command == "eval":
        request["inputs"]["T"] = _load_json_arg(getattr(args, "matrix_T"), "matrix T")
    elif args.command in {"diff", "compare"}:
        request["inputs"]["T"] = _load_json_arg(getattr(args, "matrix_T"), "matrix T")
        request["inputs"]["h"] = _load_json_arg(getattr(args, "matrix_h"), "matrix h")
        if args.command == "diff":
            request["inputs"]["algorithm"] = args.algorithm
    elif args.command == "curve":
        curve_arg = args.curve
        if not curve_arg.startswith("poly:"):
            raise _RequestError("invalid_input",
                                "only polynomial curves are supported: --curve poly:<files>")
        files = [f for f in curve_arg[len("poly:"):].split(",") if f]
        if not files:
            raise _RequestError("invalid_input", "poly: curve needs coefficient files")
        request["inputs"]["curve"] = {
            "kind": "poly",
            "coefficients": [_load_json_arg(f, "curve coefficient") for f in files],
        }
        request["inputs"]["t"] = args.t
    elif args.command == "integral":
        request["inputs"]["W"] = _load_json_arg(args.W, "matrix W")
        request["inputs"]["u1"] = args.u1
        request["inputs"]["u2"] = args.u2
    return request


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        request = _request_from_args(args)
    except _RequestError as exc:
        body = dumps_stable({
            "command": args.command,
            "error": {"error": exc.code, "detail": exc.detail},
        })
        print(body)
        return _EXIT_VALIDATION
    code, report = run_request(request)
    body = dumps_stable(report)
    if args.out:
        Path(args.out).write_text(body + "\n")
    else:
        print(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
