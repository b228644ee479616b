"""CLI behavior: JSON reports, exit codes, determinism, and goldens."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseries.cli import dumps_stable, main, run_request
from make_goldens import golden_commands

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def data(name):
    return str(DATA / name)


class TestStableSerialization:
    def test_sorted_keys_and_float_format(self):
        body = dumps_stable({"b": 1.0, "a": [True, None, 2, 0.5]})
        assert body == '{"a":[true,null,2,5.0000000000000000e-01],"b":1.0000000000000000e+00}'

    def test_seventeen_significant_digits_round_trip(self):
        x = 0.1 + 0.2
        again = json.loads(dumps_stable({"x": x}))["x"]
        assert again == x

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            dumps_stable({"x": object()})


class TestExitCodes:
    def test_eval_success(self):
        code, out = run_cli(["eval", "--series", data("exp_series.json"),
                             "--matrix-T", data("T_small.json")])
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "eval"
        diag = rep["results"][0]["diagnostics"]
        assert diag["cap_hit"] is False
        assert diag["tail_bound"] <= 1e-12

    def test_outside_radius_is_validation_error(self):
        code, out = run_cli(["eval", "--series", data("geometric_series.json"),
                             "--matrix-T", data("T_big.json")])
        assert code == 2
        rep = json.loads(out)
        assert rep["error"]["error"] == "outside_radius"

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run_cli(["eval", "--series", data("exp_series.json"),
                             "--matrix-T", str(bad)])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "malformed_json"

    def test_unknown_builtin(self):
        code, out = run_cli(["eval", "--series", '{"builtin": "zeta"}',
                             "--matrix-T", data("T_small.json")])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "unknown_series"

    def test_cap_exceeded_is_numerical_failure(self):
        code, out = run_cli(["eval", "--series", data("geometric_series.json"),
                             "--matrix-T", data("T_cap.json"), "--max-terms", "10"])
        assert code == 3
        rep = json.loads(out)
        assert rep["error"]["error"] == "cap_exceeded"
        assert rep["results"][0]["diagnostics"]["cap_hit"] is True

    def test_derivative_ball_guard(self):
        code, out = run_cli(["diff", "--series", data("geometric_series.json"),
                             "--matrix-T", data("T_mid.json"),
                             "--matrix-h", data("h_small.json"),
                             "--algorithm", "derivative-series"])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "outside_derivative_ball"

    def test_missing_file_is_validation_error(self, tmp_path):
        code, out = run_cli(["eval", "--series", data("exp_series.json"),
                             "--matrix-T", str(tmp_path / "absent.json")])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "malformed_json"

    def test_inline_json_for_every_argument(self):
        # one rule for every JSON argument; a long inline series is no path name
        series = json.dumps({"coeffs": [1.0 / math.factorial(n) for n in range(40)],
                             "radius": 1e300})
        assert len(series) > 255
        matrix_t = Path(data("T_small.json")).read_text()
        code, out = run_cli(["eval", "--series", series, "--matrix-T", matrix_t])
        assert code == 0
        want = json.loads((GOLDENS / "eval.json").read_text())["results"][0]["value"]
        got = json.loads(out)["results"][0]["value"]
        np.testing.assert_allclose(got["entries"], want["entries"], rtol=1e-14)

    def test_matrix_schema_error(self, tmp_path):
        bad = tmp_path / "bad_matrix.json"
        bad.write_text('{"dim": 2, "field": "real", "entries": [1.0, 2.0]}')
        code, out = run_cli(["eval", "--series", data("exp_series.json"),
                             "--matrix-T", str(bad)])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "invalid_input"


class TestDiffCommand:
    def test_identity_series_returns_h(self):
        code, out = run_cli(["diff", "--series", '{"coeffs": [0.0, 1.0], "radius": 100.0}',
                             "--matrix-T", data("T_small.json"),
                             "--matrix-h", data("h_small.json")])
        assert code == 0
        rep = json.loads(out)
        value = rep["results"][0]["value"]
        expected = json.load(open(data("h_small.json")))
        assert value["entries"] == pytest.approx(expected["entries"], rel=1e-14)

    def test_all_runs_every_algorithm(self):
        code, out = run_cli(["diff", "--series", data("exp_series.json"),
                             "--matrix-T", data("T_small.json"),
                             "--matrix-h", data("h_small.json"),
                             "--algorithm", "all"])
        assert code == 0
        rep = json.loads(out)
        assert [r["algorithm"] for r in rep["results"]] == [
            "direct", "commutant", "power-commutant", "derivative-series"]

    def test_complex_matrices(self):
        code, out = run_cli(["diff", "--series", data("exp_series.json"),
                             "--matrix-T", data("T_complex.json"),
                             "--matrix-h", data("T_complex.json")])
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert value["field"] == "complex"
        assert isinstance(value["entries"][0], list)


class TestCompareCommand:
    def test_four_way_agreement_inside_third(self):
        code, out = run_cli(["compare", "--series", data("exp_series.json"),
                             "--matrix-T", data("T_small.json"),
                             "--matrix-h", data("h_small.json")])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["results"]) == 4
        assert rep["skipped"] == []
        assert len(rep["comparisons"]) == 6
        assert rep["max_relative_difference"] <= 1e-9

    def test_skip_record_outside_third(self):
        code, out = run_cli(["compare", "--series", data("geometric_series.json"),
                             "--matrix-T", data("T_mid.json"),
                             "--matrix-h", data("h_small.json")])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["results"]) == 3
        assert len(rep["skipped"]) == 1
        assert rep["skipped"][0]["algorithm"] == "derivative-series"


class TestCurveAndIntegral:
    def test_curve_runs(self):
        code, out = run_cli([
            "curve", "--series", data("geometric_series.json"),
            "--curve", f"poly:{data('curve_A0.json')},{data('curve_A1.json')},{data('curve_A2.json')}",
            "--t", "0.2"])
        assert code == 0
        rep = json.loads(out)
        assert rep["t"] == 0.2
        assert rep["results"][0]["algorithm"] == "derivative-series"

    def test_curve_requires_poly_prefix(self):
        code, out = run_cli(["curve", "--series", data("exp_series.json"),
                             "--curve", "spline:whatever", "--t", "0.0"])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "invalid_input"

    def test_integral_residual_small(self):
        code, out = run_cli(["integral", "--series", data("exp_series.json"),
                             "--W", data("W_nilpotent.json"), "--u1", "0.0", "--u2", "1.0"])
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-10

    def test_integral_endpoint_guard(self):
        code, out = run_cli(["integral", "--series", data("geometric_series.json"),
                             "--W", data("T_big.json"), "--u1", "0.0", "--u2", "1.0"])
        assert code == 2
        assert json.loads(out)["error"]["error"] == "outside_radius"


class TestIdentitiesCommand:
    def test_reports_all_five(self):
        code, out = run_cli(["identities", "--trials", "5", "--dim", "3", "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["identities"]) == 5
        assert all(r["trials"] == 5 for r in rep["identities"])

    def test_complex_field_flag(self):
        code, out = run_cli(["identities", "--trials", "3", "--dim", "2", "--seed", "1",
                             "--field", "complex"])
        assert code == 0
        worst = json.loads(out)["identities"][0]["worst_case"]
        assert worst["B"]["field"] == "complex"


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(golden_commands()))
    def test_identical_runs_are_byte_identical(self, name):
        argv = golden_commands()[name]
        code1, out1 = run_cli(list(argv))
        code2, out2 = run_cli(list(argv))
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("name", sorted(golden_commands()))
    def test_matches_golden(self, name):
        argv = golden_commands()[name]
        code, out = run_cli(list(argv))
        assert code == 0
        assert out == (GOLDENS / f"{name}.json").read_text()

    def test_out_flag_writes_same_bytes(self, tmp_path):
        target = tmp_path / "report.json"
        argv = golden_commands()["eval"] + ["--out", str(target)]
        code, out = run_cli(argv)
        assert code == 0
        assert out == ""
        assert target.read_text() == (GOLDENS / "eval.json").read_text()


class TestRunRequestApi:
    def test_replaying_a_request_is_deterministic(self):
        request = {
            "command": "diff",
            "series": {"builtin": "exp"},
            "policy": {"tolerance": 1e-12, "max_terms": 1000},
            "inputs": {
                "T": json.load(open(data("T_small.json"))),
                "h": json.load(open(data("h_small.json"))),
                "algorithm": "commutant",
            },
        }
        saved = json.dumps(request)
        code1, rep1 = run_request(json.loads(saved))
        code2, rep2 = run_request(json.loads(saved))
        assert code1 == code2 == 0
        assert dumps_stable(rep1) == dumps_stable(rep2)

    def test_unknown_command(self):
        code, rep = run_request({"command": "solve"})
        assert code == 2
        assert rep["error"]["error"] == "invalid_input"

    def test_integral_cap_hit_is_an_error_not_a_truncated_residual(self):
        request = {"command": "integral", "series": {"builtin": "geometric"},
                   "inputs": {"W": _scalar_matrix(0.9999), "u1": 0.0, "u2": 1.0}}
        code, rep = run_request(request)
        assert code == 3
        assert "term cap" in rep["error"]["detail"]
        assert "residual" not in rep


def _scalar_matrix(x):
    return {"dim": 1, "field": "real", "entries": [x]}


class TestNumericalFailures:
    """A cap hit or an overflow is exit 3 with an error object, never an exception."""

    @pytest.mark.parametrize("x", [100.0, 200.0])
    @pytest.mark.parametrize("command", ["eval", "diff"])
    def test_exp_at_a_huge_norm(self, x, command):
        request = {"command": command, "series": {"builtin": "exp"},
                   "inputs": {"T": _scalar_matrix(x), "h": _scalar_matrix(1.0),
                              "algorithm": "direct"}}
        code, rep = run_request(request)
        if code == 0:
            got = rep["results"][0]
            assert abs(got["value"]["entries"][0] - math.exp(x)) <= got["diagnostics"]["tail_bound"]
        else:
            assert code == 3
            assert rep["error"]["error"] == "overflow"
            assert "overflowed" in rep["error"]["detail"]

    @pytest.mark.parametrize("command, algorithm", [("eval", None), ("diff", "direct"),
                                                    ("diff", "derivative-series")])
    def test_overflow_emits_no_numpy_warning(self, command, algorithm):
        request = {"command": command, "series": {"builtin": "exp"},
                   "inputs": {"T": _scalar_matrix(100.0), "h": _scalar_matrix(1.0),
                              "algorithm": algorithm}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_request(request)
        assert (code, rep["error"]["error"]) == (3, "overflow")

    def test_overflow_leaves_stderr_empty(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matseries.cli", "eval", "--series", '{"builtin": "exp"}',
             "--matrix-T", json.dumps(_scalar_matrix(100.0))],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"]["error"] == "overflow"
        assert proc.stderr == ""

    def test_integral_cap_hit_reports_cap_exceeded(self):
        request = {"command": "integral", "series": {"builtin": "geometric"},
                   "inputs": {"W": _scalar_matrix(0.9999), "u1": 0.0, "u2": 1.0}}
        code, rep = run_request(request)
        assert code == 3
        assert rep["error"]["error"] == "cap_exceeded"


#: One small valid request per command except identities, whose trial count
#: and dimension are honoured as given (a large one runs long by design).
_VALID_REQUESTS = {
    "eval": {"command": "eval", "series": {"builtin": "geometric"},
             "inputs": {"T": _scalar_matrix(0.5)}},
    "diff": {"command": "diff", "series": {"builtin": "geometric"},
             "inputs": {"T": _scalar_matrix(0.25), "h": _scalar_matrix(1.0), "algorithm": "all"}},
    "compare": {"command": "compare", "series": {"builtin": "geometric"},
                "inputs": {"T": _scalar_matrix(0.25), "h": _scalar_matrix(1.0)}},
    "curve": {"command": "curve", "series": {"builtin": "geometric"},
              "inputs": {"curve": {"coefficients": [_scalar_matrix(0.1), _scalar_matrix(0.2)]},
                         "t": 0.5}},
    "integral": {"command": "integral", "series": {"builtin": "geometric"},
                 "inputs": {"W": _scalar_matrix(0.5), "u1": 0.0, "u2": 1.0}},
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _replaced(request: dict, path: tuple, value):
    out = json.loads(json.dumps(request))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _key_paths(obj, prefix=()):
    paths = [prefix] if prefix else []
    if isinstance(obj, dict):
        for key, child in obj.items():
            paths += _key_paths(child, prefix + (key,))
    return paths


_REPLACEABLE = [(name, path) for name, req in _VALID_REQUESTS.items()
                for path in _key_paths(req) + [("policy",)]]


class TestRunRequestContract:
    """``run_request`` answers every JSON value; user errors are exit 2 with an error object."""

    @staticmethod
    def assert_rejected(request):
        code, rep = run_request(request)
        assert code == 2
        assert rep["error"]["error"] == "invalid_input"
        dumps_stable(rep)

    @pytest.mark.parametrize("request_value", [[1], "eval", None, 5, 0.5, True])
    def test_request_that_is_not_an_object(self, request_value):
        self.assert_rejected(request_value)

    @pytest.mark.parametrize("command", [["eval"], {"eval": 1}])
    def test_list_or_object_command(self, command):
        self.assert_rejected({"command": command})

    @pytest.mark.parametrize("curve", [5, "poly", [1], None])
    def test_non_object_curve(self, curve):
        self.assert_rejected(_replaced(_VALID_REQUESTS["curve"], ("inputs", "curve"), curve))

    @pytest.mark.parametrize("value", [[1], {}, {"x": 1}, 10 ** 400, "x"])
    @pytest.mark.parametrize("command,key", [("curve", "t"), ("integral", "u1"),
                                             ("integral", "u2")])
    def test_non_number_parameter(self, command, key, value):
        self.assert_rejected(_replaced(_VALID_REQUESTS[command], ("inputs", key), value))

    @pytest.mark.parametrize("series", [{"builtin": ["exp"]}, {"coeffs": [["a", 1]]},
                                        {"coeffs": [[None, 1]]}, {"coeffs": [10 ** 400]},
                                        {"coeffs": [1.0], "radius": 10 ** 400}])
    def test_malformed_series(self, series):
        code, rep = run_request(_replaced(_VALID_REQUESTS["eval"], ("series",), series))
        assert code == 2
        assert rep["error"]["error"] in ("invalid_input", "unknown_series")

    @pytest.mark.parametrize("matrix_json", [
        {"dim": True, "field": "real", "entries": [0.5]},
        {"dim": 1, "field": "real", "entries": [10 ** 400]},
        {"dim": 1, "field": "complex", "entries": [[10 ** 400, 0]]},
    ])
    def test_malformed_matrix(self, matrix_json):
        self.assert_rejected(_replaced(_VALID_REQUESTS["eval"], ("inputs", "T"), matrix_json))

    @pytest.mark.parametrize("policy", [{"max_terms": math.inf}, {"tolerance": 10 ** 400}])
    def test_out_of_range_policy(self, policy):
        self.assert_rejected(_replaced(_VALID_REQUESTS["eval"], ("policy",), policy))

    @settings(max_examples=60, deadline=None)
    @given(value=_JSON)
    def test_never_raises_on_any_json_value(self, value):
        code, rep = run_request(value)
        assert code in (0, 2, 3)
        dumps_stable(rep)

    @settings(max_examples=100, deadline=None)
    @given(target=st.sampled_from(_REPLACEABLE), value=_JSON)
    def test_never_raises_with_one_field_replaced(self, target, value):
        name, path = target
        code, rep = run_request(_replaced(_VALID_REQUESTS[name], path, value))
        assert code in (0, 2, 3)
        assert (code == 0) == ("error" not in rep)
        dumps_stable(rep)


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "matseries.cli", "eval",
         "--series", data("exp_series.json"), "--matrix-T", data("T_small.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "eval"
