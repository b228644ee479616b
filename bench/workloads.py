"""Seeded inputs for the four benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's
seed and returns the ops of one *pass*; the timed loop repeats the pass.
The program only ever sees the generated requests, matrices and series
specs.  Series objects are never built here for the program's use: each
op builds its series fresh, as ``run_request`` does, so coefficient
memoisation never carries over from one op to the next.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from matseries import builtin_series, matrix, series_from_json

BUILTINS = ("exp", "sin", "cos", "log1p", "geometric", "atan")
#: Entire series have no finite radius; their norm fractions refer to this.
#: At d <= 8 the commutant forms miss their reported tail bound from s of
#: about 2.4 on (a known defect, ROADMAP item 2); up to s = 1.8 they stay
#: within a sixth of the checked tolerance.  The defect probe shows it.
ENTIRE_SCALE = 2.0
NORM_FRACS = (0.1, 0.3, 0.6, 0.9)
ALGORITHMS = ("direct", "commutant", "power-commutant", "derivative-series")
#: Commands of a small JSON request; "diff/<algorithm>" names one algorithm.
SMALL_COMMANDS = ("eval",) + tuple(f"diff/{a}" for a in ALGORITHMS) + ("compare", "curve", "integral")
#: Invalid copies added to request-small, as a share of its valid ops.
INVALID_SHARE = 0.05
#: A run of this many zero coefficients followed by a nonzero one ends the
#: library's tail scan early (a known defect, ROADMAP item 4); such lists
#: are tagged so a mismatch on them is attributed to that defect.
ZERO_RUN = 12
#: Longest zero run in a generated coefficient list.  The majorants of the
#: derivative bounds add up to two leading zeros, so this stays three short
#: of ZERO_RUN; the defect probe sends the longer runs.
MAX_ZERO_RUN = ZERO_RUN - 3


@dataclass
class Op:
    """One operation of a pass.

    ``kind`` is the command ("eval", "diff/<algorithm>", "compare",
    "curve", "integral", "identities"); ``request`` is the JSON request the
    op sends (or, for API ops, the same inputs in request form), ``text``
    its serialized form, and ``invalid`` names the mutation that makes the
    request invalid, if any.  ``argv`` is the command line of a CLI op and
    ``api`` the (T, h) matrices of an API op.
    """

    kind: str
    series: dict | None
    d: int
    frac: float
    request: dict
    text: str = ""
    invalid: str | None = None
    argv: list[str] = field(default_factory=list)
    api: tuple | None = None

    @property
    def series_label(self) -> str:
        if self.series is None:
            return "-"
        return self.series.get("builtin", "explicit")

    @property
    def label(self) -> str:
        tag = f" invalid:{self.invalid}" if self.invalid else ""
        return f"{self.kind} {self.series_label} d={self.d} s/R={self.frac}{tag}"

    @property
    def zero_run(self) -> bool:
        """True when an explicit coefficient list has a long zero run before a nonzero."""
        coeffs = (self.series or {}).get("coeffs")
        if not coeffs:
            return False
        run = 0
        for c in coeffs:
            if c == 0:
                run += 1
            else:
                if run >= ZERO_RUN:
                    return True
                run = 0
        return False


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def rand_array(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    """Gaussian d x d matrix scaled to the given Frobenius norm."""
    a = rng.standard_normal((d, d))
    return a * (norm / np.linalg.norm(a))


def matrix_json(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "field": "real", "entries": [float(v) for v in a.ravel()]}


EXPLICIT_DEGREES = (3, 8, 16, 32, 48)
EXPLICIT_DENSITIES = (1.0, 0.5, 0.2)


def explicit_series(rng: np.random.Generator, degree: int, density: float) -> dict:
    """Coefficient list of the given degree; each lower coefficient is nonzero with
    probability ``density``, and the seed draws which ones and their values.
    A coefficient that would end a run of more than MAX_ZERO_RUN zeros is
    kept nonzero."""
    support = rng.random(degree + 1) < density
    run = 0
    for n in range(degree + 1):
        run = 0 if support[n] else run + 1
        if run > MAX_ZERO_RUN:
            support[n], run = True, 0
    coeffs = rng.standard_normal(degree + 1) * support
    coeffs[degree] = (0.5 + rng.random()) * rng.choice([-1.0, 1.0])
    return {"coeffs": [float(c) + 0.0 for c in coeffs]}


def series_radius(spec: dict) -> float:
    """Radius the norm fractions refer to: the series' own, or ENTIRE_SCALE."""
    r = series_from_json(spec).radius
    return ENTIRE_SCALE if math.isinf(r) else r


def ball(kind: str, radius: float) -> float:
    """Radius of the ball an op's norm must stay inside (R/3 for nested commutators)."""
    return radius / 3.0 if kind in ("diff/derivative-series", "curve") else radius


def rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """A seeded random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def small_request(rng: np.random.Generator, base: np.random.Generator, kind: str, spec: dict,
                  d: int, frac: float) -> dict:
    """A valid JSON request for one command at norm ``frac`` times its ball radius.

    ``base`` draws the matrices and the curve and ray parameters, and is
    the same for every seed; the seed's ``rng`` draws h and an orthogonal
    Q that every matrix is rotated by (``Q A Q^T``).  Rotation keeps all
    the norms that truncation and quadrature decide on, so each slot does
    the same work for every seed while its entries differ.
    """
    radius = series_radius(spec)
    norm = frac * ball(kind, radius)
    q = rotation(rng, d)
    if kind == "integral":
        u1 = -0.5 * float(base.random())
        w = q @ rand_array(base, d, norm) @ q.T
        return {"command": "integral", "series": spec,
                "inputs": {"W": matrix_json(w), "u1": u1, "u2": 1.0}}
    if kind == "curve":
        t = 0.25 + 0.5 * float(base.random())
        coeffs = [q @ base.standard_normal((d, d)) @ q.T for _ in range(3)]
        point = coeffs[0] + t * coeffs[1] + t * t * coeffs[2]
        scale = norm / np.linalg.norm(point)
        return {"command": "curve", "series": spec,
                "inputs": {"curve": {"kind": "poly",
                                     "coefficients": [matrix_json(c * scale) for c in coeffs]},
                           "t": t}}
    inputs = {"T": matrix_json(q @ rand_array(base, d, norm) @ q.T)}
    if kind == "eval":
        return {"command": "eval", "series": spec, "inputs": inputs}
    inputs["h"] = matrix_json(rand_array(rng, d, 1.0))
    if kind == "compare":
        return {"command": "compare", "series": spec, "inputs": inputs}
    inputs["algorithm"] = kind.split("/", 1)[1]
    return {"command": "diff", "series": spec, "inputs": inputs}


_REQUIRED = {
    "eval": [("command",), ("series",), ("inputs", "T")],
    "diff": [("command",), ("series",), ("inputs", "T"), ("inputs", "h")],
    "compare": [("command",), ("series",), ("inputs", "T"), ("inputs", "h")],
    "curve": [("command",), ("series",), ("inputs", "curve"), ("inputs", "t")],
    "integral": [("command",), ("series",), ("inputs", "W"), ("inputs", "u1"), ("inputs", "u2")],
}
_WRONG_TYPES = ("x", [1], {})
#: Wrong-type values that make ``run_request`` raise instead of answering
#: exit 2 with an error object (a known defect, ROADMAP item 4).  The timed
#: passes draw among the other values; the defect probe sends these.
RAISES = {("command",): (list, dict), ("inputs", "curve"): (str, list),
          ("inputs", "t"): (list, dict), ("inputs", "u1"): (list, dict),
          ("inputs", "u2"): (list, dict)}


def mutate(rng: np.random.Generator, op: Op) -> None:
    """Make ``op`` invalid: drop a required key, give one a wrong type, or leave the ball.

    The key and the wrong value are drawn uniformly, the value among those
    the program rejects (see RAISES).
    """
    req = op.request
    radius = series_radius(op.series)
    finite = not math.isinf(series_from_json(op.series).radius)
    how = str(rng.choice(["drop", "type", "norm"] if finite else ["drop", "type"]))
    if how == "norm":
        factor = 1.1
        inputs = req["inputs"]
        if op.kind == "curve":
            coeffs = inputs["curve"]["coefficients"]
            arrs = [np.array(c["entries"]).reshape(op.d, op.d) for c in coeffs]
            t = inputs["t"]
            point = arrs[0] + t * arrs[1] + t * t * arrs[2]
            scale = factor * ball(op.kind, radius) / np.linalg.norm(point)
            inputs["curve"]["coefficients"] = [matrix_json(a * scale) for a in arrs]
        else:
            key = "W" if op.kind == "integral" else "T"
            arr = np.array(inputs[key]["entries"]).reshape(op.d, op.d)
            target = factor * ball(op.kind, radius)
            inputs[key] = matrix_json(arr * (target / np.linalg.norm(arr)))
        op.invalid = "norm-beyond-ball"
    else:
        paths = _REQUIRED[req["command"]]
        path = paths[int(rng.integers(len(paths)))]
        parent = req
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            values = [v for v in _WRONG_TYPES if not isinstance(v, RAISES.get(path, ()))]
            parent[path[-1]] = values[int(rng.integers(len(values)))]
        op.invalid = f"{how}:{'.'.join(path)}"
    op.text = json.dumps(req)


def finish(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    for op in ops:
        if not op.text:
            op.text = json.dumps(op.request)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def request_small(rng: np.random.Generator) -> list[Op]:
    """Every command x every series kind x every norm fraction, plus invalid copies.

    The dimension and the degree and density of the coefficient lists are
    spread evenly over the grid rather than drawn, so that every seed's
    pass does the same mix of work; the seed draws the rotations and h,
    the coefficients and which ops get an invalid copy.
    """
    ops = []
    base = np.random.default_rng(1)
    for i, kind in enumerate(SMALL_COMMANDS):
        for j, name in enumerate(BUILTINS + ("explicit",)):
            for k, frac in enumerate(NORM_FRACS):
                d = (2, 4, 8)[(i + j + k) % 3]
                if name == "explicit":
                    degree = EXPLICIT_DEGREES[(i + k) % len(EXPLICIT_DEGREES)]
                    density = EXPLICIT_DENSITIES[(i + 2 * k) % len(EXPLICIT_DENSITIES)]
                    spec = explicit_series(rng, degree, density)
                else:
                    spec = {"builtin": name}
                ops.append(Op(kind, spec, d, frac, small_request(rng, base, kind, spec, d, frac)))
    n_invalid = round(INVALID_SHARE * len(ops))
    for i in rng.choice(len(ops), size=n_invalid, replace=False):
        op = copy.deepcopy(ops[int(i)])
        mutate(rng, op)
        ops.append(op)
    return finish(ops, rng)


def wire_large(rng: np.random.Generator) -> list[Op]:
    """Eval and diff on cheap entire series with large matrices: JSON dominates.

    Series and norm are spread evenly over the slots; the seed draws the
    rotations and h.
    """
    kinds = ("eval",) + tuple(f"diff/{a}" for a in ALGORITHMS)
    plan = [(128, k) for k in kinds + ("compare",)] * 2 + [(256, k) for k in kinds]
    ops = []
    base = np.random.default_rng(2)
    for i, (d, kind) in enumerate(plan):
        spec = {"builtin": ("exp", "sin", "cos")[i % 3]}
        frac = NORM_FRACS[(i // 3) % 3]
        ops.append(Op(kind, spec, d, frac, small_request(rng, base, kind, spec, d, frac)))
    return finish(ops, rng)


#: (series, norm s, dimension, API functions).  Derivative-series appears
#: only where s < R/3; the d of each case keeps every op under about a
#: second while still reaching the near-radius and underflowing cases.
KERNEL_CASES = (
    ("exp", 0.9, 256, ("eval", "direct", "commutant", "power-commutant", "derivative-series")),
    ("exp", 5.0, 256, ("eval", "direct", "commutant", "power-commutant", "derivative-series")),
    ("log1p", 0.3, 256, ("eval", "direct", "commutant", "power-commutant")),
    ("geometric", 0.3, 256, ("eval", "direct", "commutant", "power-commutant")),
    ("log1p", 0.3, 64, ("derivative-series",)),
    ("geometric", 0.3, 64, ("derivative-series",)),
    ("log1p", 0.9, 256, ("eval",)),
    ("log1p", 0.9, 128, ("direct", "commutant")),
    ("geometric", 0.9, 128, ("eval", "direct")),
    ("log1p", 0.9, 64, ("power-commutant",)),
    ("geometric", 0.9, 64, ("commutant", "power-commutant")),
)


def kernel_large(rng: np.random.Generator) -> list[Op]:
    """Direct Python API calls on large matrices: BLAS and power stacks dominate."""
    ops = []
    base = np.random.default_rng(3)
    for name, s, d, fns in KERNEL_CASES:
        # rotating a fixed matrix keeps the spectrum and the norms of all its
        # powers, so the same powers underflow to subnormals for every seed
        q = rotation(rng, d)
        t_arr = q @ rand_array(base, d, s) @ q.T
        h_arr = rand_array(rng, d, 1.0)
        t, h = matrix(t_arr), matrix(h_arr)
        radius = builtin_series(name).radius
        frac = s if math.isinf(radius) else s / radius
        for fn in fns:
            kind = "eval" if fn == "eval" else f"diff/{fn}"
            request = {"command": "eval" if fn == "eval" else "diff", "series": {"builtin": name},
                       "inputs": {"T": t_arr, "h": h_arr, "algorithm": fn}}
            ops.append(Op(kind, {"builtin": name}, d, frac, request, text="-", api=(t, h)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def defect_probe() -> list[Op]:
    """Fixed requests that show the known defects the timed passes stay clear of.

    Eval and direct on a coefficient list with a long zero run (ROADMAP
    item 4, the ``[1] + [0]*13 + [1]``, ``T = 0.5 I`` example), the two
    commutant forms on entire series at s = 3.6 (ROADMAP item 2), and one
    request per wrong type in RAISES.  Every run sends them once, outside
    the timed loop.
    """
    ops = []
    zero_run = {"coeffs": [1.0] + [0.0] * 13 + [1.0]}
    half = matrix_json(0.5 * np.eye(2))
    ops.append(Op("eval", zero_run, 2, 0.5, {"command": "eval", "series": zero_run,
                                             "inputs": {"T": half}}))
    ops.append(Op("diff/direct", zero_run, 2, 0.5,
                  {"command": "diff", "series": zero_run,
                   "inputs": {"T": half, "h": matrix_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
                              "algorithm": "direct"}}))
    # a symmetric T misses by 60-140 times the checked tolerance here
    sym = np.array([[1.0, 0.5], [0.5, -0.3]])
    t = matrix_json(sym * (3.6 / np.linalg.norm(sym)))
    h = matrix_json(np.array([[0.3, -0.7], [0.5, 0.2]]))
    for name, algorithm in (("sin", "commutant"), ("exp", "power-commutant")):
        spec = {"builtin": name}
        ops.append(Op(f"diff/{algorithm}", spec, 2, 3.6 / ENTIRE_SCALE,
                      {"command": "diff", "series": spec,
                       "inputs": {"T": t, "h": h, "algorithm": algorithm}}))
    base = np.random.default_rng(4)
    valid = {kind: small_request(base, base, kind, {"builtin": "exp"}, 2, 0.3)
             for kind in ("eval", "curve", "integral")}
    for path, types in RAISES.items():
        kind = {"t": "curve", "curve": "curve", "u1": "integral", "u2": "integral"}.get(path[-1], "eval")
        for value in _WRONG_TYPES:
            if isinstance(value, types):
                req = copy.deepcopy(valid[kind])
                parent = req["inputs"] if len(path) == 2 else req
                parent[path[-1]] = value
                ops.append(Op(kind, {"builtin": "exp"}, 2, 0.3, req,
                              invalid=f"type:{'.'.join(path)}"))
    for op in ops:
        op.text = json.dumps(op.request)
    return ops


def cli_shapes(rng: np.random.Generator, workdir) -> list[Op]:
    """The six CLI command shapes (diff once per algorithm) on seeded inputs with d <= 4.

    With a ``workdir``, writes each op's JSON files there and records the
    argv the ``matseries`` command line takes for them.
    """
    ops = []
    kinds = ("eval",) + tuple(f"diff/{a}" for a in ALGORITHMS) + ("compare", "curve", "integral")
    for i, kind in enumerate(kinds):
        name = str(rng.choice(BUILTINS + ("explicit",)))
        spec = ({"builtin": name} if name != "explicit" else
                explicit_series(rng, int(rng.choice(EXPLICIT_DEGREES)),
                                float(rng.choice(EXPLICIT_DENSITIES))))
        d = int(rng.choice([2, 3, 4]))
        frac = float(rng.choice(NORM_FRACS[:2]))
        req = small_request(rng, rng, kind, spec, d, frac)
        req["policy"] = {"tolerance": 1e-12, "max_terms": 10_000}
        argv = _cli_argv(req, workdir, i) if workdir else []
        ops.append(Op(kind, spec, d, frac, req, argv=argv))
    trials, dim, seed = 20, int(rng.choice([2, 3, 4])), int(rng.integers(1 << 30))
    req = {"command": "identities", "policy": {"tolerance": 1e-12, "max_terms": 10_000},
           "inputs": {"trials": trials, "dim": dim, "seed": seed, "field": "real"}}
    argv = ["identities", "--trials", str(trials), "--dim", str(dim), "--seed", str(seed)]
    ops.append(Op("identities", None, dim, 0.0, req, argv=argv))
    return finish(ops, rng)


def _cli_argv(req: dict, workdir, index: int) -> list[str]:
    def put(name: str, obj) -> str:
        path = workdir / f"op{index}_{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    inputs = req["inputs"]
    argv = [req["command"], "--series", put("series", req["series"])]
    if req["command"] in ("eval", "diff", "compare"):
        argv += ["--matrix-T", put("T", inputs["T"])]
    if req["command"] in ("diff", "compare"):
        argv += ["--matrix-h", put("h", inputs["h"])]
    if req["command"] == "diff":
        argv += ["--algorithm", inputs["algorithm"]]
    if req["command"] == "curve":
        files = [put(f"A{j}", c) for j, c in enumerate(inputs["curve"]["coefficients"])]
        argv += ["--curve", "poly:" + ",".join(files), "--t", repr(inputs["t"])]
    if req["command"] == "integral":
        argv += ["--W", put("W", inputs["W"]), "--u1", repr(inputs["u1"]),
                 "--u2", repr(inputs["u2"])]
    return argv
