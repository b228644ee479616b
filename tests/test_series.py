"""Series construction, truncation selection, and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseries import (
    BoundKind,
    BUILTIN_NAMES,
    NonFiniteResultError,
    OutsideDerivativeBallError,
    OutsideRadiusError,
    ScalarField,
    SeriesError,
    TruncationPolicy,
    builtin_series,
    choose_truncation,
    derivative_series,
    eval_matrix,
    eval_scalar,
    from_coefficients,
    matrix,
    radius_estimate,
    series_from_json,
)
from matseries.series import _power_bound, _truncation_detail
from helpers import STRUCTURES, structured_matrix

CLOSED_FORMS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "log1p": math.log1p,
    "geometric": lambda s: 1.0 / (1.0 - s),
    "atan": math.atan,
}


def brute_tail(term, n, upto=400):
    return sum(term(k) for k in range(n + 1, upto))


class TestBuiltins:
    def test_names_and_radii(self):
        assert set(BUILTIN_NAMES) == {"exp", "sin", "cos", "log1p", "geometric", "atan"}
        assert builtin_series("exp").radius == math.inf
        assert builtin_series("geometric").radius == 1.0
        assert builtin_series("log1p").radius == 1.0
        assert builtin_series("atan").radius == 1.0

    def test_exp_coefficients(self):
        g = builtin_series("exp")
        for n in range(10):
            assert g.coefficient(n) == 1.0 / math.factorial(n)

    def test_geometric_coefficients_all_one(self):
        g = builtin_series("geometric")
        assert all(g.coefficient(n) == 1.0 for n in range(50))

    def test_log1p_coefficients(self):
        g = builtin_series("log1p")
        assert g.coefficient(0) == 0.0
        for n in range(1, 10):
            assert g.coefficient(n) == (-1.0) ** (n + 1) / n

    def test_sin_cos_alternating_support(self):
        s, c = builtin_series("sin"), builtin_series("cos")
        assert s.coefficient(0) == 0.0 and s.coefficient(1) == 1.0
        assert s.coefficient(3) == -1.0 / 6.0
        assert c.coefficient(0) == 1.0 and c.coefficient(1) == 0.0
        assert c.coefficient(2) == -0.5

    def test_unknown_name(self):
        with pytest.raises(SeriesError):
            builtin_series("tanh")


class TestDerivativeSeries:
    def test_exp_is_its_own_derivative(self):
        # (1/(n+1)!) * (n+1) rounds once more than 1/n!, so compare to 1 ulp
        g = builtin_series("exp")
        dg = derivative_series(g, 1)
        for n in range(25):
            assert dg.coefficient(n) == pytest.approx(g.coefficient(n), rel=1e-15)

    def test_geometric_first_derivative(self):
        dg = derivative_series(builtin_series("geometric"), 1)
        for m in range(20):
            assert dg.coefficient(m) == float(m + 1)

    def test_geometric_second_derivative(self):
        d2 = derivative_series(builtin_series("geometric"), 2)
        for m in range(20):
            assert d2.coefficient(m) == float((m + 1) * (m + 2))

    @pytest.mark.parametrize("name", ["exp", "log1p", "atan"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_composition_matches_direct_exactly(self, name, p):
        g = builtin_series(name)
        direct = derivative_series(g, p)
        composed = g
        for _ in range(p):
            composed = derivative_series(composed, 1)
        for m in range(30):
            assert composed.coefficient(m) == direct.coefficient(m)

    def test_radius_unchanged(self):
        assert derivative_series(builtin_series("atan"), 3).radius == 1.0

    def test_rejects_zero_order(self):
        with pytest.raises(SeriesError):
            derivative_series(builtin_series("exp"), 0)


class TestEvalScalar:
    def test_exp_at_zero(self):
        assert eval_scalar(builtin_series("exp"), 0.0) == 1.0

    def test_geometric_at_half(self):
        got = eval_scalar(builtin_series("geometric"), 0.5)
        assert abs(got - 2.0) <= 1e-12

    def test_outside_radius_rejected(self):
        with pytest.raises(OutsideRadiusError):
            eval_scalar(builtin_series("log1p"), 1.5)

    def test_boundary_rejected(self):
        with pytest.raises(OutsideRadiusError):
            eval_scalar(builtin_series("geometric"), 1.0)

    def test_complex_argument(self):
        got = eval_scalar(builtin_series("exp"), 0.3j)
        assert got == pytest.approx(complex(math.cos(0.3), math.sin(0.3)), abs=1e-12)


class TestEvalMatrix:
    def test_exp_of_zero_matrix_is_identity(self):
        val, diag = eval_matrix(builtin_series("exp"), matrix(np.zeros((3, 3))))
        np.testing.assert_array_equal(val.entries, np.eye(3))
        assert not diag.cap_hit
        assert diag.terms_used == 0 and diag.tail_bound == 0.0

    def test_exp_of_diagonal(self):
        val, _ = eval_matrix(builtin_series("exp"), matrix(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(np.diag(val.entries), np.exp([1.0, 2.0]), rtol=1e-12)

    def test_geometric_nilpotent_truncates_exactly(self):
        t = matrix([[0.0, 0.5], [0.0, 0.0]])
        val, _ = eval_matrix(builtin_series("geometric"), t)
        np.testing.assert_array_equal(val.entries, np.eye(2) + t.entries)

    def test_nilpotent_insensitive_to_extra_terms(self):
        t = matrix([[0.0, 0.5], [0.0, 0.0]])
        loose, _ = eval_matrix(builtin_series("geometric"), t,
                               TruncationPolicy(tolerance=1e-6))
        tight, _ = eval_matrix(builtin_series("geometric"), t,
                               TruncationPolicy(tolerance=1e-14))
        np.testing.assert_array_equal(loose.entries, tight.entries)

    def test_outside_radius_rejected(self):
        t = matrix(1.2 * np.eye(2) / math.sqrt(2.0) * math.sqrt(2.0))  # norm ~1.7
        with pytest.raises(OutsideRadiusError):
            eval_matrix(builtin_series("geometric"), t)

    def test_matches_scalar_on_diagonal(self):
        # matrix and scalar paths truncate at different indices; a tight
        # tolerance keeps both partial sums within 1e-12 relative of g
        rng = np.random.default_rng(11)
        pol = TruncationPolicy(tolerance=1e-14)
        for name in BUILTIN_NAMES:
            g = builtin_series(name)
            d = rng.uniform(-0.3, 0.3, 3) * min(g.radius, 1.0)
            val, _ = eval_matrix(g, matrix(np.diag(d)), pol)
            expected = [eval_scalar(g, x, pol) for x in d]
            np.testing.assert_allclose(np.diag(val.entries), expected, rtol=1e-12, atol=1e-14)

    def test_complex_coefficients_force_complex_result(self):
        g = from_coefficients([0.0, 1j], radius=math.inf)
        val, _ = eval_matrix(g, matrix(np.eye(2)))
        assert val.field is ScalarField.COMPLEX
        np.testing.assert_array_equal(val.entries, 1j * np.eye(2))

    def test_cap_reported_not_fatal(self):
        t = matrix(0.9 / math.sqrt(2.0) * np.eye(2))
        _, diag = eval_matrix(builtin_series("geometric"), t,
                              TruncationPolicy(tolerance=1e-12, max_terms=5))
        assert diag.cap_hit
        assert diag.terms_used == 5

    def test_diag_invariant_tail_below_tolerance(self):
        pol = TruncationPolicy(tolerance=1e-10)
        t = matrix(0.4 * np.eye(2) / math.sqrt(2.0))
        _, diag = eval_matrix(builtin_series("geometric"), t, pol)
        assert not diag.cap_hit
        assert diag.tail_bound <= pol.tolerance

    def test_diagnostics_wire_keys(self):
        _, diag = eval_matrix(builtin_series("exp"), matrix([[0.5]]))
        assert set(diag.to_json()) == {"terms_used", "tail_bound", "ball_radius_used", "cap_hit"}


class TestChooseTruncation:
    def test_geometric_at_zero_needs_nothing(self):
        assert choose_truncation(builtin_series("geometric"), 0.0,
                                 TruncationPolicy(tolerance=1e-30)) == 0

    def test_exp_value_bound_matches_independent_summation(self):
        g = builtin_series("exp")
        eps = 1e-12
        got = choose_truncation(g, 0.5, TruncationPolicy(tolerance=eps))
        term = lambda n: 0.5 ** n / math.factorial(n) if n < 170 else 0.0
        oracle = next(n for n in range(200) if brute_tail(term, n) < eps)
        assert got == oracle

    def test_geometric_second_order_matches_brute_force(self):
        g = builtin_series("geometric")
        eps = 1e-10
        got = choose_truncation(
            g, 0.5, TruncationPolicy(tolerance=eps, bound_kind=BoundKind.SECOND_ORDER))
        term = lambda n: n * (n - 1) * 0.5 ** (n - 1)
        oracle = next(n for n in range(400) if brute_tail(term, n) < eps)
        assert got == oracle

    def test_first_derivative_at_zero_keeps_linear_term(self):
        got = choose_truncation(builtin_series("exp"), 0.0,
                                TruncationPolicy(bound_kind=BoundKind.FIRST_DERIVATIVE))
        assert got == 1

    def test_three_s_requires_third_of_radius(self):
        g = builtin_series("geometric")
        with pytest.raises(OutsideDerivativeBallError):
            choose_truncation(g, 0.4, TruncationPolicy(bound_kind=BoundKind.THREE_S))
        assert choose_truncation(g, 0.2, TruncationPolicy(bound_kind=BoundKind.THREE_S)) > 0

    def test_outside_radius_rejected(self):
        with pytest.raises(OutsideRadiusError):
            choose_truncation(builtin_series("geometric"), 1.0, TruncationPolicy())


class TestBoundSoundness:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_tail_bound_dominates_true_residual(self, name):
        g = builtin_series(name)
        closed = CLOSED_FORMS[name]
        if math.isinf(g.radius):
            grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        else:
            grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        for s in grid:
            for tol in (1e-6, 1e-10):
                val, diag = eval_matrix(g, matrix([[s]]), TruncationPolicy(tolerance=tol))
                residual = abs(closed(s) - float(np.real(val.entries[0, 0])))
                # the partial sum itself carries O(N eps |g|) rounding
                slack = 1e-13 * max(1.0, abs(closed(s)))
                assert residual <= diag.tail_bound + slack, (name, s, tol)


class TestPowerNormBound:
    @pytest.mark.parametrize("kind", STRUCTURES + ("1x1",))
    @pytest.mark.parametrize("norm", [0.6, 1.7])
    def test_powers_stay_below_k_rho_power(self, kind, norm):
        rng = np.random.default_rng(41)
        t = (matrix([[-norm]]) if kind == "1x1" else structured_matrix(rng, kind, 5, norm)).entries
        s = float(np.linalg.norm(t))
        k, rho = _power_bound(t, s)
        assert k >= 1.0 and rho <= s
        power = np.eye(t.shape[0])
        for m in range(1, 41):
            power = power @ t
            # the computed power carries rounding of about m d u s^m
            margin = 2.0 * m * t.shape[0] * 2.0**-53 * s**m
            assert np.linalg.norm(power) <= k * rho**m * (1.0 + 1e-12) + margin, (kind, m)

    def test_no_bound_without_a_usable_square(self):
        assert _power_bound(np.zeros((3, 3)), 0.0) is None
        assert _power_bound(None, 0.5) is None
        huge = np.full((2, 2), 1e100)
        assert _power_bound(huge, float(np.linalg.norm(huge))) is None  # norm(T T) overflows
        tiny = np.full((2, 2), 1e-160)
        assert _power_bound(tiny, float(np.linalg.norm(tiny))) is None  # below the normal range

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_matrix_path_never_above_the_scalar_path(self, name, kind):
        g = builtin_series(name)
        radius = g.radius if math.isfinite(g.radius) else 6.0
        ball = radius / 3.0 if kind is BoundKind.THREE_S else radius
        rng = np.random.default_rng(42)
        for structure in STRUCTURES:
            for frac in (0.3, 0.9):
                t = structured_matrix(rng, structure, 4, frac * ball).entries
                s = float(np.linalg.norm(t))
                for tol in (1e-6, 1e-12):
                    n_mat, tail, cap_hit = _truncation_detail(g, s, tol, 10_000, kind, t)
                    n_scalar, _, _ = _truncation_detail(g, s, tol, 10_000, kind)
                    assert n_mat == n_scalar if kind is BoundKind.SECOND_ORDER else n_mat <= n_scalar
                    assert not cap_hit and tail <= tol, (structure, frac, tol)

    def test_near_radius_log1p_needs_few_terms(self):
        rng = np.random.default_rng(40)
        t = structured_matrix(rng, "gaussian", 64, 0.9)
        g = builtin_series("log1p")
        value, diag = eval_matrix(g, t)
        assert diag.terms_used <= 40 < choose_truncation(g, 0.9)
        assert diag.tail_bound <= 1e-12
        w, v = np.linalg.eig(t.entries)
        reference = (v * np.log1p(w)) @ np.linalg.inv(v)
        assert np.linalg.norm(value.entries - reference) <= 1e-10


class TestExplicitSupport:
    GAP = [1.0] + [0.0] * 13 + [1.0]

    def test_zero_run_is_not_a_series_end(self):
        g = from_coefficients(self.GAP, radius=math.inf)
        value, diag = eval_matrix(g, matrix(0.5 * np.eye(2)))
        np.testing.assert_allclose(value.entries, (1.0 + 0.5**14) * np.eye(2), rtol=1e-15)
        assert diag.terms_used == 14 and diag.tail_bound == 0.0

    def test_derivative_series_keeps_the_support(self):
        g = derivative_series(from_coefficients(self.GAP, radius=math.inf), 1)
        t = matrix([[0.5, 0.2], [0.1, -0.4]])
        value, diag = eval_matrix(g, t)
        expected = 14.0 * np.linalg.matrix_power(t.entries, 13)
        np.testing.assert_allclose(value.entries, expected, rtol=1e-13)
        assert diag.terms_used == 13

    def test_all_zero_list(self):
        value, diag = eval_matrix(from_coefficients([0.0, 0.0]), matrix([[0.5]]))
        assert value.entries[0, 0] == 0.0 and diag.terms_used == 0

    def test_tight_cap_on_a_long_list_reports_the_exact_remainder(self):
        g = from_coefficients([1.0] * 30, radius=1.0)
        _, diag = eval_matrix(g, matrix([[0.5]]), TruncationPolicy(max_terms=5))
        assert diag.cap_hit and diag.terms_used == 5
        assert diag.tail_bound == pytest.approx(sum(0.5**n for n in range(6, 30)), rel=1e-12)

    def test_remainder_past_the_scan_margin_stays_exact(self):
        # the list runs past max_terms + 64, which bounds only the scan of an opaque rule
        g = from_coefficients([1.0] * 200, radius=1.0)
        _, diag = eval_matrix(g, matrix([[0.5]]), TruncationPolicy(max_terms=5))
        assert diag.cap_hit and diag.terms_used == 5
        assert diag.tail_bound == pytest.approx(sum(0.5**n for n in range(6, 200)), rel=1e-12)

    def test_list_longer_than_ten_thousand_is_summed_exactly(self):
        # max_terms is the only term cap: the list is scanned to its last coefficient
        g = from_coefficients([0.0] * 10_500 + [1.0], radius=math.inf)
        value, diag = eval_matrix(g, matrix([[1.0]]), TruncationPolicy(max_terms=20_000))
        assert value.entries[0, 0] == 1.0
        assert (diag.terms_used, diag.cap_hit, diag.tail_bound) == (10_500, False, 0.0)


class TestLargeNorms:
    @pytest.mark.parametrize("kind", [BoundKind.VALUE, BoundKind.FIRST_DERIVATIVE,
                                      BoundKind.THREE_S])
    @pytest.mark.parametrize("s", [100.0, 200.0, 1e4])
    def test_majorant_scan_does_not_overflow(self, kind, s):
        n = choose_truncation(builtin_series("exp"), s, TruncationPolicy(bound_kind=kind))
        assert 0 < n <= 10_000

    @pytest.mark.parametrize("x", [100.0, 200.0])
    def test_overflowing_partial_sum_raises(self, x):
        with pytest.raises(NonFiniteResultError, match="overflowed"):
            eval_matrix(builtin_series("exp"), matrix([[x]]))


class TestUserSeries:
    def test_radius_estimate_examples(self):
        assert radius_estimate(np.ones(51)) == pytest.approx(1.0, rel=1e-9)
        assert radius_estimate([2.0 ** n for n in range(51)]) == pytest.approx(0.5, rel=1e-12)
        assert radius_estimate([1.0 / math.factorial(n) for n in range(51)]) > 10.0
        assert radius_estimate(np.zeros(5)) == math.inf

    def test_user_radius_wins(self):
        g = from_coefficients([1.0, 1.0, 1.0], radius=2.5)
        assert g.radius == 2.5 and not g.radius_is_estimate

    def test_estimated_radius_flagged(self):
        g = from_coefficients([2.0 ** n for n in range(40)])
        assert g.radius_is_estimate
        assert g.radius == pytest.approx(0.5, rel=1e-9)

    def test_polynomial_evaluates_exactly(self):
        g = from_coefficients([1.0, 2.0, 0.0, 5.0], radius=math.inf)
        t = matrix([[0.3, 0.1], [0.0, -0.2]])
        val, diag = eval_matrix(g, t)
        expected = (np.eye(2) + 2 * t.entries
                    + 5 * t.entries @ t.entries @ t.entries)
        np.testing.assert_allclose(val.entries, expected, rtol=1e-15, atol=1e-16)
        assert diag.tail_bound == 0.0

    def test_non_finite_coefficients_fail_loudly(self):
        with pytest.raises(SeriesError):
            from_coefficients([1.0, math.inf])

    def test_empty_coefficients_rejected(self):
        with pytest.raises(SeriesError):
            from_coefficients([])

    @settings(max_examples=40, deadline=None)
    @given(ratio=st.floats(min_value=0.2, max_value=5.0))
    def test_radius_estimate_recovers_geometric_growth(self, ratio):
        # coefficients (1/r)^n have radius exactly r by the root test
        coeffs = [(1.0 / ratio) ** n for n in range(60)]
        assert radius_estimate(coeffs) == pytest.approx(ratio, rel=1e-9)


class TestSeriesJson:
    def test_builtin_form(self):
        g = series_from_json({"builtin": "exp"})
        assert g.name == "exp" and g.radius == math.inf

    def test_coefficient_form_with_radius(self):
        g = series_from_json({"coeffs": [0.0, 1.0, 2.0], "radius": 3.0})
        assert g.radius == 3.0
        assert g.coefficient(2) == 2.0

    def test_complex_pairs(self):
        g = series_from_json({"coeffs": [[0.0, 1.0], 2.0], "radius": 1.0})
        assert g.complex_coefficients
        assert g.coefficient(0) == 1j

    @pytest.mark.parametrize("bad", [
        {"builtin": "nope"},
        {"coeffs": []},
        {"coeffs": "x"},
        {"coeffs": [[1.0, 2.0, 3.0]]},
        {"radius": 1.0},
        {"coeffs": [1.0], "radius": -2.0},
        "just a string",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SeriesError):
            series_from_json(bad)
