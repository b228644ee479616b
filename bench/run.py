#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of matseries.

    python3 bench/run.py --workload request-small --seed 1 --seconds 20 --trace 0

Workloads: cli-startup, request-small, kernel-large, wire-large (``all``
runs each in turn).  One client runs a closed loop: each op waits for the
previous one.  The loop repeats whole passes of seeded ops until the timed
work reaches ``--seconds``.  Every output is checked against an oracle
outside the timed spans.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: it times half of ``--seconds`` untraced and half with in-memory spans
around calls into each layer's public functions, then prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; details (machine, counters, failing ops,
spans) go to ``bench/out/``.  Run from a checkout holding ``src/matseries``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, process_time

START = perf_counter()
#: Op and span times are CPU seconds of this process (plus, for a child
#: process, the child's own).  On a shared VM the wall clock also counts the
#: time the hypervisor takes the CPU away; the CPU clock does not.
clock = process_time
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("cli-startup", "request-small", "kernel-large", "wire-large")
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 3
#: Fresh interpreters per start-up probe in a traced run.
STARTUP_PROBES = 3
#: Stop starting passes after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 60.0
#: Per kind of op: CPU seconds its host-speed reference takes at the speed
#: reported times are scaled to (about its median on the 2-vCPU machine the
#: benchmark was tuned on), the CPU time of ops between two samples, and
#: the power of the reference's slowdown the ops slow by.  API ops mix
#: interpreter work with BLAS: over 40 passes on that machine their time
#: followed the square root of the 256 x 256 products' slowdown, and
#: dividing by the full slowdown doubled the spread between passes.
SPEED = {"json": (0.010, 0.5, 1.0), "api": (0.020, 0.5, 0.5), "cli": (0.150, 2.0, 1.0)}

KERNEL_SPAN = {
    "eval": "series.eval_matrix",
    "diff/direct": "frechet.direct",
    "diff/commutant": "frechet.commutant",
    "diff/power-commutant": "frechet.power_commutant",
    "diff/derivative-series": "frechet.derivative_series",
    "compare": "frechet.compare",
    "curve": "frechet.curve",
    "integral": "frechet.integral",
}
LAYER_TIMES = (
    "series.scan", "series.eval_matrix",
    "frechet.direct", "frechet.commutant", "frechet.power_commutant",
    "frechet.derivative_series", "frechet.compare", "frechet.curve", "frechet.integral",
    "algebra.from_json", "algebra.to_json",
    "cli.json_loads", "cli.run_request", "cli.dumps_stable", "cli.command",
    "oracle.check",
)
COUNTERS = ("series.terms_used", "frechet.inner_terms_used", "cli.report_bytes")


def kernels() -> dict:
    """The public function each op kind calls, for the API ops and the layer probes."""
    import matseries as ms

    return {
        "eval": ms.eval_matrix, "diff/direct": ms.frechet_direct,
        "diff/commutant": ms.frechet_commutant, "diff/power-commutant": ms.frechet_power_commutant,
        "diff/derivative-series": ms.frechet_derivative_series, "compare": ms.frechet_compare,
        "curve": ms.curve_derivative, "integral": ms.integral_identity_check,
    }


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd: list[str]) -> tuple[int, bytes, float, int]:
    """Run a child to completion: exit code, stdout, its CPU seconds, its peak RSS in KiB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        proc.stderr.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class Workload:
    """Seeded ops of one workload plus the code that runs and checks them."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np

        import workloads as wl
        from checks import Checker

        self.name, self.seed, self.workdir = name, seed, workdir
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        if name == "cli-startup":
            self.ops = wl.cli_shapes(rng, workdir)
        else:
            self.ops = {"request-small": wl.request_small, "kernel-large": wl.kernel_large,
                        "wire-large": wl.wire_large}[name](rng)
        self.mode = {"cli-startup": "cli", "kernel-large": "api"}.get(name, "json")
        self.checker = Checker()
        # per op index: (report digest, failure, counters) of its first run
        self.first: dict[int, tuple[int, str | None, dict]] = {}
        # per op index: (exit code, report, failure, counters) of the in-process run
        self.expected_cli: dict[int, tuple[int, str, str | None, dict]] = {}
        self.peak_child_kb = 0
        self.failures: dict[tuple[str, str | None], int] = {}

    def warm_up(self) -> None:
        """Compile bytecode and fault in the libraries every op touches."""
        if self.mode == "cli":
            self.run_cli(self.ops[0])
            return
        import numpy as np

        import workloads as wl

        for op in wl.cli_shapes(np.random.default_rng([self.seed, 99]), None):
            op.text = json.dumps(op.request)
            self.run_json(op, None)
        d = max(op.d for op in self.ops)
        a = np.ones((d, d))
        for _ in range(3):
            a @ a

    # -- running one op ----------------------------------------------------

    def run_json(self, op, tr):
        from matseries.cli import dumps_stable, run_request

        if tr is None:
            start = clock()
            code, report = run_request(json.loads(op.text))
            body = dumps_stable(report)
            return (code, report, body), clock() - start
        root = tr.open("op")
        req = tr.call("cli.json_loads", root[0], json.loads, op.text)
        code, report = tr.call("cli.run_request", root[0], run_request, req)
        body = tr.call("cli.dumps_stable", root[0], dumps_stable, report)
        return (code, report, body), tr.close(root)

    def run_api(self, op, tr):
        import matseries as ms

        kernel = kernels()[op.kind]
        args = op.api[:1] if op.kind == "eval" else op.api

        def call():
            # the series is built inside the timed span, fresh for every op
            return kernel(ms.builtin_series(op.series["builtin"]), *args)

        if tr is None:
            start = clock()
            out = call()
            return out, clock() - start
        root = tr.open("op")
        out = tr.call(KERNEL_SPAN[op.kind], root[0], call)
        return out, tr.close(root)

    def run_cli(self, op, tr=None):
        start = clock()
        code, out, child_cpu, rss_kb = run_child([sys.executable, "-m", "matseries.cli", *op.argv])
        latency = clock() - start + child_cpu
        if tr:
            tr.spans.append(("op", start, start + latency, -1, tr.op))
            tr.spans.append(("cli.process", start, start + latency, len(tr.spans) - 1, tr.op))
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        return (code, out.decode()), latency

    def run(self, op, tr):
        """The op's output and its CPU time."""
        if self.mode == "json":
            return self.run_json(op, tr)
        if self.mode == "api":
            return self.run_api(op, tr)
        return self.run_cli(op, tr)

    # -- checking one op ---------------------------------------------------

    def check(self, index: int, op, out) -> tuple[str | None, dict]:
        """Failure reason (None when correct) and the op's exact counters."""
        if self.mode == "api":
            reason = self.checker.check_api(op, out)
            diags = [(out[1] if op.kind == "eval" else out.diagnostics).to_json()]
            return reason, counters(diags, 0)
        if self.mode == "cli":
            code, stdout = out
            if index not in self.expected_cli:
                from matseries.cli import dumps_stable, run_request

                want_code, report = run_request(json.loads(json.dumps(op.request)))
                body = dumps_stable(report)
                self.expected_cli[index] = (want_code, body,
                                            self.checker.check_report(op, want_code, report),
                                            counters(diagnostics(report), len(body)))
            want_code, body, reason, counts = self.expected_cli[index]
            if code != want_code or stdout != body + "\n":
                reason = f"stdout differs from in-process report (exit {code})"
            return reason, counts
        code, report, body = out
        digest = hash(body)
        if index not in self.first:
            reason = self.checker.check_report(op, code, report)
            self.first[index] = (digest, reason, counters(diagnostics(report), len(body)))
        first_digest, reason, counts = self.first[index]
        if digest != first_digest:
            reason = "report bytes differ between repeats"
        return reason, counts

    def record_failure(self, op, reason: str) -> None:
        from checks import classify

        known = classify(op, reason)
        key = (f"{op.kind} {op.series_label}{' invalid:' + op.invalid if op.invalid else ''}: "
               f"{reason.split(' (')[0]}", known)
        self.failures[key] = self.failures.get(key, 0) + 1


def diagnostics(report) -> list[dict]:
    if not isinstance(report, dict):
        return []
    return [r["diagnostics"] for r in report.get("results", []) if isinstance(r, dict)]


def counters(diags: list[dict], report_bytes: int) -> dict:
    return {
        "series.terms_used": sum(d["terms_used"] for d in diags),
        "frechet.inner_terms_used": sum(d.get("inner_terms_used") or 0 for d in diags),
        "cli.report_bytes": report_bytes,
    }


# ---------------------------------------------------------------------------
# Layer probes (traced runs only)
# ---------------------------------------------------------------------------

def probe_layers(op, tr) -> None:
    """Time one call into each layer's public function on the op's own inputs.

    The probe spans sit under their own root, beside the op's real path,
    so they add nothing to the op's latency.  Each builds its series fresh.
    """
    import matseries as ms

    if op.invalid or op.kind == "identities":
        return
    root = tr.open("probe")
    p = root[0]
    if op.api:
        t = op.api[0]
        g = ms.builtin_series(op.series["builtin"])
        for kind in bound_kinds(op, ms.algebra_norm(t), g.radius):
            tr.call("series.scan", p, ms.choose_truncation, ms.builtin_series(op.series["builtin"]),
                    ms.algebra_norm(t), ms.TruncationPolicy(bound_kind=kind))
        tr.close(root)
        return
    inputs = op.request["inputs"]
    mats = tr.call("algebra.from_json", p, _from_json_all, inputs)
    spec = op.request["series"]
    g = ms.series_from_json(spec)
    if op.kind == "integral":
        w = mats["W"]
        s = max(abs(inputs["u1"]), abs(inputs["u2"])) * ms.algebra_norm(w)
        args = (w, inputs["u1"], inputs["u2"])
    elif op.kind == "curve":
        curve = ms.polynomial_curve(mats["curve"])
        s = ms.algebra_norm(curve.value(inputs["t"]))
        args = (curve, inputs["t"])
    else:
        s = ms.algebra_norm(mats["T"])
        args = (mats["T"],) if op.kind == "eval" else (mats["T"], mats["h"])
    for kind in bound_kinds(op, s, g.radius):
        # the integral's scans run on the integrand, the derivative series
        fresh = ms.series_from_json(spec)
        if op.kind == "integral":
            fresh = ms.derivative_series(fresh, 1)
        tr.call("series.scan", p, ms.choose_truncation, fresh, s, ms.TruncationPolicy(bound_kind=kind))
    out = tr.call(KERNEL_SPAN[op.kind], p, kernels()[op.kind], ms.series_from_json(spec), *args)
    if op.kind == "eval":
        values = [out[0]]
    elif op.kind == "compare":
        values = [r.value for r in out.results]
    elif op.kind == "curve":
        values = [out]
    elif op.kind == "integral":
        values = []
    else:
        values = [out.value]
    tr.call("algebra.to_json", p, lambda: [v.to_json() for v in values])
    tr.close(root)


def bound_kinds(op, s: float, radius: float) -> list:
    """Top-level bound kinds the op's kernel scans (one scan per top-level call)."""
    from matseries import BoundKind

    kinds = {
        "eval": [BoundKind.VALUE],
        "diff/direct": [BoundKind.FIRST_DERIVATIVE],
        "diff/commutant": [BoundKind.SECOND_ORDER],
        "diff/power-commutant": [BoundKind.SECOND_ORDER],
        "diff/derivative-series": [BoundKind.THREE_S],
        "curve": [BoundKind.THREE_S],
        "integral": [BoundKind.VALUE],
        "compare": [BoundKind.FIRST_DERIVATIVE, BoundKind.SECOND_ORDER, BoundKind.SECOND_ORDER],
    }[op.kind]
    if op.kind == "compare" and s < radius / 3.0:
        kinds = kinds + [BoundKind.THREE_S]
    return kinds


def _from_json_all(inputs: dict) -> dict:
    from matseries import MatrixElement

    out = {k: MatrixElement.from_json(inputs[k]) for k in ("T", "h", "W") if k in inputs}
    if "curve" in inputs:
        out["curve"] = [MatrixElement.from_json(c) for c in inputs["curve"]["coefficients"]]
    return out


def run_main(argv: list[str]) -> int:
    from matseries.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

_SPEED_DOC = json.dumps({"dim": 4, "field": "real", "entries": [i / 7 for i in range(16)]})


def speed_sample(mode: str) -> float:
    """CPU seconds of a fixed reference doing the same kind of work as the ops.

    The host this was tuned on runs the same code up to a third slower for
    minutes at a time, in CPU time too, as neighbours load its cores, and
    each kind of work slows by its own amount.  The reference is sampled
    through the run, and times are scaled by its median: a fresh interpreter
    importing numpy for CLI ops, dense 256 x 256 products for API ops, and a
    loop of JSON and 4 x 4 matrix work for JSON ops.
    """
    if mode == "cli":
        return run_child([sys.executable, "-c", "import numpy"])[2]
    import numpy as np

    start = clock()
    if mode == "api":
        big = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256) / 256.0
        for _ in range(25):
            big @ big
        return clock() - start
    a = np.eye(4)
    for _ in range(200):
        a = a @ np.array(json.loads(_SPEED_DOC)["entries"]).reshape(4, 4)
        a /= np.linalg.norm(a)
        json.dumps([float(v) for v in a.ravel()])
    return clock() - start


def measure(w: Workload, seconds: float, tr=None, replay=None) -> dict:
    """Repeat whole passes until the timed work reaches ``seconds``.

    Each pass is scaled by the host slowdown of the reference samples taken
    beside it, so that a change of host speed within the run is tracked.
    """
    nominal, every, power = SPEED[w.mode]
    speed = [speed_sample(w.mode)]
    pass_slowdown: list[float] = []
    since_speed = 0.0
    latencies: list[float] = []
    walls: list[float] = []
    by_op: list[list[float]] = [[] for _ in w.ops]
    pass_counts: list[dict] = []
    pass_busy: list[float] = []
    attempted = failed = 0
    busy = 0.0
    while True:
        busy_before = busy
        first_sample = len(speed) - 1
        totals = dict.fromkeys(COUNTERS, 0)
        for index, op in enumerate(w.ops):
            if tr:
                tr.op += 1
            start, wall = clock(), perf_counter()
            try:
                out, latency = w.run(op, tr)
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                out, error, latency = None, f"raised {type(exc).__name__}: {exc}", clock() - start
            walls.append(perf_counter() - wall)
            latencies.append(latency)
            by_op[index].append(latency)
            busy += latency
            since_speed += latency
            attempted += 1
            if tr:
                reason, counts = (error, None) if error else \
                    tr.call("oracle.check", -1, w.check, index, op, out)
                if not error:
                    probe_layers(op, tr)
            else:
                reason, counts = w.check(index, op, out) if error is None else (error, None)
            if reason:
                failed += 1
                w.record_failure(op, reason)
            for key, value in (counts or {}).items():
                totals[key] += value
            if since_speed >= every:
                speed.append(speed_sample(w.mode))
                since_speed = 0.0
        if len(speed) - 1 == first_sample:
            speed.append(speed_sample(w.mode))
            since_speed = 0.0
        pass_slowdown.append((statistics.median(speed[first_sample:]) / nominal) ** power)
        pass_counts.append(totals)
        pass_busy.append(busy - busy_before)
        if replay:
            replay(tr)
        if busy >= seconds or perf_counter() - START > WALL_LIMIT_S:
            break
    n = len(w.ops)
    scaled = [x / pass_slowdown[i // n] for i, x in enumerate(latencies)]
    return {"latencies": latencies, "scaled": scaled, "busy": busy, "passes": len(pass_counts),
            "by_op": by_op, "pass_busy": pass_busy, "walls": walls, "speed_samples": speed,
            "pass_slowdown": pass_slowdown, "slowdown": statistics.median(pass_slowdown),
            "attempted": attempted, "failed": failed, "pass_counters": pass_counts}


def make_replay(w: Workload):
    """Once per traced pass: the CLI command shapes in-process, decomposed by layer."""
    import numpy as np

    import workloads as wl

    (w.workdir / "replay").mkdir()
    ops = wl.cli_shapes(np.random.default_rng([w.seed, 0]), w.workdir / "replay")

    def replay(tr):
        for op in ops:
            tr.op += 1
            tr.call("cli.command", -1, run_main, op.argv)
            if op.kind != "identities":
                w.run_json(op, tr)
                probe_layers(op, tr)

    return replay


# ---------------------------------------------------------------------------
# Machine and calibration
# ---------------------------------------------------------------------------

def machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def calibrate() -> dict:
    """Median time of one dense product, in microseconds (machine calibration)."""
    import numpy as np

    rng = np.random.default_rng(0)
    out = {}
    cases = [(f"algebra.matmul_us.d{d}", d, 1.0) for d in (64, 128, 256)]
    cases.append(("algebra.matmul_subnormal_us.d128", 128, 1e-310))
    for name, d, scale in cases:
        a = rng.standard_normal((d, d)) * scale
        b = rng.standard_normal((d, d))
        times = []
        for _ in range(25):
            start = clock()
            a @ b
            times.append(clock() - start)
        out[name] = statistics.median(times[5:]) * 1e6
    return out


def startup_probes() -> dict:
    """Interpreter, numpy import and package import: CPU time of fresh interpreters."""
    snippets = {"bare": "pass", "numpy": "import numpy", "package": "import matseries.cli"}
    times = {k: [] for k in snippets}
    for _ in range(STARTUP_PROBES):
        for key, code in snippets.items():
            status, _out, cpu, _rss = run_child([sys.executable, "-c", code])
            if status != 0:
                raise RuntimeError(f"start-up probe {code!r} exited {status}")
            times[key].append(cpu)
    med = {k: statistics.median(v) * 1e3 for k, v in times.items()}
    return {
        "cli.interpreter_ms": med["bare"],
        "cli.numpy_import_ms": med["numpy"] - med["bare"],
        "cli.package_import_ms": med["package"] - med["numpy"],
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def setup_probe_times(args) -> tuple[list[float], list[float], list[float]]:
    """CPU and wall time from spawning a fresh benchmark process to its first timed op.

    Each probe follows a sample of the start-up reference, a fresh
    interpreter importing numpy, and is also returned scaled by it.
    """
    times, walls, scaled = [], [], []
    for _ in range(SETUP_PROBES):
        slowdown = speed_sample("cli") / SPEED["cli"][0]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, _, cpu = line.decode().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(float(cpu))
        walls.append(ready - start)
        scaled.append(float(cpu) / slowdown)
    return times, walls, scaled


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        if args.setup_probe:
            w = Workload(args.workload, args.seed, workdir)
            w.warm_up()
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            print(f"ready {process_time() + children.ru_utime + children.ru_stime!r}", flush=True)
            return 0
        setup = ([], [], []) if args.trace else setup_probe_times(args)
        w = Workload(args.workload, args.seed, workdir)
        w.warm_up()
        own_setup = perf_counter() - START
        if args.trace:
            return traced(args, w, own_setup)
        return untraced(args, w, setup, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def rss_mb(w: Workload) -> float:
    if w.mode == "cli":
        return w.peak_child_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args, w: Workload, setup: tuple[list[float], list[float], list[float]],
             own_setup: float) -> int:
    calibration = calibrate()
    m = measure(w, args.seconds)
    peak = rss_mb(w)
    lat = m["latencies"]
    cpu = {
        "setup_s": statistics.median(setup[0]),
        "ops_per_s": len(w.ops) / statistics.median(m["pass_busy"]),
        "latency_ms.p50": statistics.median(lat) * 1e3,
        "latency_ms.p90": quantile(lat, 90) * 1e3,
    }
    slow = m["slowdown"]
    per_pass = [len(w.ops) / b * k for b, k in zip(m["pass_busy"], m["pass_slowdown"])]
    metrics = {
        "setup_s": (statistics.median(setup[2]), "s"),
        "ops_per_s": (statistics.median(per_pass), "1/s"),
        "latency_ms.p50": (statistics.median(m["scaled"]) * 1e3, "ms"),
        "latency_ms.p90": (quantile(m["scaled"], 90) * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = {"host_slowdown": slow, "pass_host_slowdown": m["pass_slowdown"],
             "speed_samples_s": m["speed_samples"], "cpu_unscaled": cpu,
             "wall_clock": {"latency_ms.p50": statistics.median(m["walls"]) * 1e3,
                            "latency_ms.p90": quantile(m["walls"], 90) * 1e3,
                            "ops_per_s": len(lat) / sum(m["walls"])},
             "setup_cpu_samples_s": setup[0], "setup_wall_samples_s": setup[1],
             "own_setup_wall_s": own_setup, "samples": len(lat),
             "samples_beyond_p90": sum(x > quantile(lat, 90) for x in lat),
             **calibration}
    return report(args, w, m, metrics, extra)


def traced(args, w: Workload, own_setup: float) -> int:
    from tracing import Tracer

    half = args.seconds / 2.0
    base = measure(w, half)
    tr = Tracer()
    m = measure(w, half, tr, make_replay(w))
    passes = m["passes"]
    per_pass_ms = 1e3 / passes / m["slowdown"]
    self_s = tr.self_times()
    metrics = {f"{name}_ms": (self_s.get(name, 0.0) * per_pass_ms, "ms") for name in LAYER_TIMES}
    frechet_self = 0.0
    for spans in tr.per_op(("frechet.", "series.scan")).values():
        kernel = sum(v for k, v in spans.items() if k.startswith("frechet."))
        if kernel:
            frechet_self += kernel - spans.get("series.scan", 0.0)
    metrics["frechet.self_ms"] = (frechet_self * per_pass_ms, "ms")
    for key in COUNTERS:
        metrics[key] = (m["pass_counters"][0][key], "bytes" if key == "cli.report_bytes" else "count")
    metrics.update({k: (v / m["slowdown"], "ms") for k, v in startup_probes().items()})
    metrics.update({k: (v, "us") for k, v in calibrate().items()})
    metrics["oracle.max_rel_diff"] = (w.checker.max_rel_diff, "ratio")
    op_path = sum(e - s for name, s, e, parent, _ in tr.spans if name == "op")
    traced_pass = op_path / passes / m["slowdown"]
    untraced_pass = base["busy"] / base["passes"] / base["slowdown"]
    metrics["trace.overhead_share"] = (traced_pass / untraced_pass - 1.0, "share")
    total = {"attempted": base["attempted"] + m["attempted"], "failed": base["failed"] + m["failed"]}
    metrics["failed_share"] = (total["failed"] / total["attempted"], "share")
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
    tr.write(spans_path)
    m = dict(m, **total, passes=base["passes"] + passes)
    extra = {"host_slowdown": m["slowdown"], "untraced_host_slowdown": base["slowdown"],
             "own_setup_wall_s": own_setup, "untraced_passes": base["passes"], "spans": len(tr.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return report(args, w, m, metrics, extra)


def defect_probe() -> list[dict]:
    """Send the fixed defect probe once, outside the timed loop, and classify each outcome."""
    import workloads as wl
    from checks import Checker, classify
    from matseries.cli import run_request

    checker = Checker()
    outcomes = []
    for op in wl.defect_probe():
        try:
            code, out = run_request(json.loads(op.text))
            reason = checker.check_report(op, code, out)
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        outcomes.append({"op": op.label, "failure": reason,
                         "known_defect": classify(op, reason) if reason else None})
    return outcomes


def report(args, w: Workload, m: dict, metrics: dict, extra: dict) -> int:
    repeat = all(c == m["pass_counters"][0] for c in m["pass_counters"])
    probe = defect_probe()
    shown = sum(p["failure"] is not None for p in probe)
    if args.trace:
        metrics["defect_probe.failed_ops"] = (shown, "count")
    failures = [{"op": k[0], "known_defect": k[1], "count": n} for k, n in sorted(w.failures.items(),
                                                                                 key=str)]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": m["passes"], "pass_cpu_s": m["pass_busy"],
        "attempted": m["attempted"], "failed": m["failed"],
        "counters_per_pass": m["pass_counters"][0], "counters_repeat_every_pass": repeat,
        "failures": failures, "defect_probe": probe, "oracles": w.checker.oracles, **extra,
        "latency_ms_by_op": sorted(((statistics.median(v) * 1e3, op.label)
                                    for op, v in zip(w.ops, m["by_op"])), reverse=True),
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {m['attempted']} ops in "
          f"{m['passes']} passes, {m['failed']} failed; details in {path.relative_to(ROOT)}")
    for f in failures:
        print(f"#   failed x{f['count']}: {f['op']} [{f['known_defect'] or 'UNEXPLAINED'}]")
    print(f"# defect probe, outside the timed loop: {shown} of {len(probe)} requests fail")
    for p in probe:
        if p["failure"]:
            print(f"#   {p['op']}: {p['failure'].split(' (')[0]} [{p['known_defect'] or 'UNEXPLAINED'}]")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    # the timed ops avoid the known defects, so any failure among them is new
    correct = m["failed"] == 0 and repeat and all(p["known_defect"] for p in probe if p["failure"])
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": details["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "matseries" / "__init__.py").is_file():
        print(f"matseries sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, for the client and every child: with one thread per
    # vCPU, products of d >= 128 were seen to stall for 16 ms at a time.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    # a terminated run still removes its work directory and reaps its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
