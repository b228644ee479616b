"""The four differential algorithms, curves, and the integral identity."""

import math

import numpy as np
import pytest

from matseries import (
    Algorithm,
    BoundKind,
    CurveDomainError,
    MatrixCurve,
    OutsideDerivativeBallError,
    OutsideRadiusError,
    ScalarField,
    SeriesError,
    BUILTIN_NAMES,
    TruncationPolicy,
    algebra_norm,
    block_triangular_differential,
    builtin_series,
    choose_truncation,
    curve_derivative,
    derivative_series,
    derivative_series_growth,
    eval_matrix,
    frechet_commutant,
    frechet_compare,
    frechet_derivative_series,
    frechet_direct,
    frechet_power_commutant,
    from_coefficients,
    identity,
    integral_identity_check,
    matrix,
    monomial_differential,
    monomial_differential_forms,
    polynomial_curve,
    polynomial_differential,
    relative_difference,
    resolvent_differential,
    zeros,
)
from helpers import STRUCTURES, random_matrix, rel_err, structured_matrix

ALL_ALGORITHMS = (frechet_direct, frechet_commutant,
                  frechet_power_commutant, frechet_derivative_series)
COMMUTANT_FORMS = (frechet_commutant, frechet_power_commutant)
IDENTITY_SERIES = from_coefficients([0.0, 1.0], radius=math.inf)
SQUARE_SERIES = from_coefficients([0.0, 0.0, 1.0], radius=math.inf)
CUBE_SERIES = from_coefficients([0.0, 0.0, 0.0, 1.0], radius=math.inf)


class TestMonomialDifferential:
    def test_degree_zero_is_zero(self):
        rng = np.random.default_rng(0)
        t, h = random_matrix(rng, 3), random_matrix(rng, 3)
        np.testing.assert_array_equal(monomial_differential(0, t, h).entries, np.zeros((3, 3)))

    def test_degree_one_is_h(self):
        rng = np.random.default_rng(1)
        t, h = random_matrix(rng, 3), random_matrix(rng, 3)
        np.testing.assert_array_equal(monomial_differential(1, t, h).entries, h.entries)

    def test_degree_two_by_hand(self):
        rng = np.random.default_rng(2)
        t, h = random_matrix(rng, 3), random_matrix(rng, 3)
        expected = h.entries @ t.entries + t.entries @ h.entries
        np.testing.assert_allclose(monomial_differential(2, t, h).entries, expected, rtol=1e-15)

    def test_degree_three_against_finite_difference(self):
        # independent oracle: central difference of T -> T^3 with raw numpy
        t = matrix([[0.0, 1.0], [0.0, 0.0]])
        h = matrix([[0.0, 0.0], [1.0, 0.0]])
        d = 1e-5
        plus = np.linalg.matrix_power(t.entries + d * h.entries, 3)
        minus = np.linalg.matrix_power(t.entries - d * h.entries, 3)
        fd = (plus - minus) / (2 * d)
        got = monomial_differential(3, t, h)
        np.testing.assert_allclose(got.entries, fd, atol=1e-9)

    def test_norm_bound(self):
        rng = np.random.default_rng(3)
        for n in range(1, 13):
            for field in ScalarField:
                t, h = random_matrix(rng, 4, field), random_matrix(rng, 4, field)
                lhs = algebra_norm(monomial_differential(n, t, h))
                assert lhs <= n * algebra_norm(t) ** (n - 1) * algebra_norm(h) * (1 + 1e-12)


class TestFourForms:
    def test_n_two_all_equal_anticommutator(self):
        rng = np.random.default_rng(4)
        t, h = random_matrix(rng, 3), random_matrix(rng, 3)
        expected = h.entries @ t.entries + t.entries @ h.entries
        for f in monomial_differential_forms(2, t, h):
            np.testing.assert_allclose(f.entries, expected, rtol=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_forms_agree(self, n):
        rng = np.random.default_rng(40 + n)
        for field in ScalarField:
            t, h = random_matrix(rng, 3, field), random_matrix(rng, 3, field)
            forms = monomial_differential_forms(n, t, h)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert relative_difference(forms[i], forms[j]) <= 1e-12

    def test_commuting_collapse(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (4, 4))
        t = matrix(a)
        h = matrix(2 * np.eye(4) + 3 * a + a @ a)
        for n in range(2, 9):
            target = n * (h.entries @ np.linalg.matrix_power(a, n - 1))
            for f in monomial_differential_forms(n, t, h):
                assert np.linalg.norm(f.entries - target) <= 1e-13 * np.linalg.norm(target)

    def test_rejects_small_degree(self):
        rng = np.random.default_rng(6)
        t, h = random_matrix(rng, 2), random_matrix(rng, 2)
        with pytest.raises(ValueError):
            monomial_differential_forms(1, t, h)


class TestFrechetDirect:
    def test_identity_function_returns_h(self):
        rng = np.random.default_rng(7)
        t, h = random_matrix(rng, 3, norm=0.5), random_matrix(rng, 3)
        res = frechet_direct(IDENTITY_SERIES, t, h)
        np.testing.assert_allclose(res.value.entries, h.entries, rtol=1e-15)
        assert res.algorithm is Algorithm.DIRECT

    def test_exp_on_nilpotent_pair(self):
        # frozen vector produced by the block-triangular oracle and checked
        # by hand: h + (Th + hT)/2 + ThT/6 for T^2 = 0
        t = matrix([[0.0, 1.0], [0.0, 0.0]])
        h = matrix([[0.0, 0.0], [1.0, 0.0]])
        res = frechet_direct(builtin_series("exp"), t, h)
        expected = [[0.5, 1.0 / 6.0], [1.0, 0.5]]
        np.testing.assert_allclose(res.value.entries, expected, rtol=1e-14)

    def test_geometric_on_half_identity(self):
        # h commutes, so g'(T)(h) = g'(1/2) I = I / (1 - 1/2)^2 = 4 I
        t = matrix(0.5 * np.eye(2))
        h = identity(2)
        res = frechet_direct(builtin_series("geometric"), t, h)
        np.testing.assert_allclose(res.value.entries, 4.0 * np.eye(2), rtol=1e-11)

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(8)
        t = random_matrix(rng, 3, norm=0.4)
        h = random_matrix(rng, 3)
        res = frechet_direct(builtin_series("exp"), t, h)
        assert not res.diagnostics.cap_hit
        assert res.diagnostics.tail_bound <= 1e-12
        assert res.diagnostics.terms_used > 2


class TestAlternativeAlgorithms:
    def test_commutant_square_matches_hand_value(self):
        rng = np.random.default_rng(9)
        t, h = random_matrix(rng, 3, norm=0.5), random_matrix(rng, 3)
        res = frechet_commutant(SQUARE_SERIES, t, h)
        expected = h.entries @ t.entries + t.entries @ h.entries
        np.testing.assert_allclose(res.value.entries, expected, rtol=1e-13, atol=1e-15)

    def test_power_commutant_cube_matches_monomial(self):
        rng = np.random.default_rng(10)
        t, h = random_matrix(rng, 3, norm=0.5), random_matrix(rng, 3)
        res = frechet_power_commutant(CUBE_SERIES, t, h)
        expected = monomial_differential(3, t, h)
        np.testing.assert_allclose(res.value.entries, expected.entries, rtol=1e-13, atol=1e-15)

    def test_derivative_series_square(self):
        rng = np.random.default_rng(11)
        t, h = random_matrix(rng, 3, norm=0.5), random_matrix(rng, 3)
        res = frechet_derivative_series(SQUARE_SERIES, t, h)
        expected = h.entries @ t.entries + t.entries @ h.entries
        np.testing.assert_allclose(res.value.entries, expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("fn", [frechet_commutant, frechet_power_commutant])
    def test_exp_agreement_with_direct(self, fn):
        rng = np.random.default_rng(12)
        g = builtin_series("exp")
        for field in ScalarField:
            t = random_matrix(rng, 3, field, norm=0.4)
            h = random_matrix(rng, 3, field)
            assert relative_difference(fn(g, t, h).value,
                                       frechet_direct(g, t, h).value) <= 1e-10

    def test_derivative_series_agreement_with_direct(self):
        rng = np.random.default_rng(13)
        g = builtin_series("exp")
        t = random_matrix(rng, 4, norm=0.2)
        h = random_matrix(rng, 4)
        assert relative_difference(frechet_derivative_series(g, t, h).value,
                                   frechet_direct(g, t, h).value) <= 1e-10

    def test_geometric_vs_resolvent_closed_form(self):
        rng = np.random.default_rng(14)
        t = random_matrix(rng, 2, norm=0.3)
        h = random_matrix(rng, 2)
        eye = np.eye(2)
        inv = np.linalg.inv(eye - t.entries)
        expected = inv @ h.entries @ inv
        res = frechet_power_commutant(builtin_series("geometric"), t, h)
        assert np.linalg.norm(res.value.entries - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_commuting_pair_collapses(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(-1, 1, (3, 3))
        a = a / np.linalg.norm(a) * 0.2
        t = matrix(a)
        h = matrix(np.eye(3) + 0.5 * a)
        g = builtin_series("geometric")
        gp, _ = eval_matrix(derivative_series(g, 1), t)
        expected = gp.entries @ h.entries
        for fn in ALL_ALGORITHMS:
            assert np.linalg.norm(fn(g, t, h).value.entries - expected) \
                <= 1e-10 * np.linalg.norm(expected)

    def test_linearity_in_h(self):
        rng = np.random.default_rng(16)
        g = builtin_series("exp")
        t = random_matrix(rng, 3, norm=0.3)
        h1, h2 = random_matrix(rng, 3), random_matrix(rng, 3)
        combo = matrix(1.5 * h1.entries - 2.0 * h2.entries)
        for fn in ALL_ALGORITHMS:
            lhs = fn(g, t, combo).value.entries
            rhs = 1.5 * fn(g, t, h1).value.entries - 2.0 * fn(g, t, h2).value.entries
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_zero_argument_gives_linear_coefficient(self):
        h = matrix([[1.0, 2.0], [3.0, 4.0]])
        g = builtin_series("sin")
        for fn in ALL_ALGORITHMS:
            np.testing.assert_allclose(fn(g, zeros(2), h).value.entries, h.entries,
                                       rtol=0, atol=1e-15)


class TestCommutantJointTruncation:
    """The commutant forms cut at total degree N, with direct's N and tail bound."""

    @pytest.mark.parametrize("name, fn", [("sin", frechet_commutant),
                                          ("exp", frechet_power_commutant)])
    def test_tail_bound_holds_far_out_on_entire_series(self, name, fn):
        # symmetric T at s = 3.6: cutting each inner series on its own, without
        # its outer factor, missed the oracle by 60-140 times the tolerance here
        sym = np.array([[1.0, 0.5], [0.5, -0.3]])
        t = matrix(sym * (3.6 / np.linalg.norm(sym)))
        h = matrix([[0.3, -0.7], [0.5, 0.2]])
        g = builtin_series(name)
        res = fn(g, t, h)
        ref = block_triangular_differential(g, t, h).entries
        assert not res.diagnostics.cap_hit
        assert np.linalg.norm(res.value.entries - ref) \
            <= 1e-8 * np.linalg.norm(ref) + res.diagnostics.tail_bound

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_same_truncation_as_direct(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        g = builtin_series(name)
        scale = g.radius if math.isfinite(g.radius) else 4.0
        for frac in (0.1, 0.5, 0.9):
            for field in ScalarField:
                t = random_matrix(rng, 4, field, norm=frac * scale)
                h = random_matrix(rng, 4, field)
                want = frechet_direct(g, t, h)
                n_stop = want.diagnostics.terms_used
                for fn in COMMUTANT_FORMS:
                    got = fn(g, t, h)
                    assert got.diagnostics.terms_used == n_stop
                    assert got.diagnostics.tail_bound == want.diagnostics.tail_bound
                    assert got.diagnostics.cap_hit == want.diagnostics.cap_hit
                    assert relative_difference(got.value, want.value) <= 1e-12

    def test_cap_hit_reported_like_direct(self):
        rng = np.random.default_rng(33)
        g = builtin_series("geometric")
        t, h = random_matrix(rng, 3, norm=0.9), random_matrix(rng, 3)
        pol = TruncationPolicy(max_terms=5)
        want = frechet_direct(g, t, h, pol).diagnostics
        assert want.cap_hit
        for fn in COMMUTANT_FORMS:
            got = fn(g, t, h, pol).diagnostics
            assert (got.terms_used, got.tail_bound, got.cap_hit) \
                == (want.terms_used, want.tail_bound, want.cap_hit)

    @pytest.mark.parametrize("fn", COMMUTANT_FORMS)
    def test_constant_series_has_zero_differential(self, fn):
        rng = np.random.default_rng(34)
        t, h = random_matrix(rng, 3, norm=0.7), random_matrix(rng, 3)
        res = fn(from_coefficients([2.5], radius=math.inf), t, h)
        assert res.diagnostics.terms_used == 0
        np.testing.assert_array_equal(res.value.entries, np.zeros((3, 3)))

    @pytest.mark.parametrize("fn", COMMUTANT_FORMS)
    def test_linear_polynomial_is_scaled_h(self, fn):
        rng = np.random.default_rng(35)
        t, h = random_matrix(rng, 3, norm=0.7), random_matrix(rng, 3)
        res = fn(from_coefficients([1.0, -3.0], radius=math.inf), t, h)
        assert res.diagnostics.terms_used == 1
        np.testing.assert_allclose(res.value.entries, -3.0 * h.entries, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("fn", COMMUTANT_FORMS)
    def test_zero_matrix_gives_exactly_linear_term(self, fn):
        h = matrix([[1.0, -2.0], [0.5, 4.0]])
        res = fn(builtin_series("exp"), zeros(2), h)
        assert res.diagnostics.terms_used == 1
        assert res.diagnostics.tail_bound == 0.0
        np.testing.assert_array_equal(res.value.entries, h.entries)

    @pytest.mark.parametrize("fn", COMMUTANT_FORMS)
    def test_complex_coefficients_on_real_matrix(self, fn):
        rng = np.random.default_rng(36)
        coeffs = [0.5, 1j, 0.5 - 0.5j, -0.25j, 0.125]
        t, h = random_matrix(rng, 3, norm=0.6), random_matrix(rng, 3)
        res = fn(from_coefficients(coeffs, radius=math.inf), t, h)
        assert res.value.field is ScalarField.COMPLEX
        assert res.diagnostics.terms_used == 4
        expected = polynomial_differential(coeffs, t, h)
        assert relative_difference(res.value, expected) <= 1e-14


class TestTailBoundCoversDirection:
    """``tail_bound`` is the unit-direction majorant times ``norm(h)``."""

    @pytest.mark.parametrize("fn", ALL_ALGORITHMS[:3])
    def test_large_direction_error_within_bound(self, fn):
        # a unit-direction bound (9.9e-7) would be missed by 1000 times here
        t, h = matrix([[0.9]]), matrix([[1000.0]])
        res = fn(builtin_series("geometric"), t, h, TruncationPolicy(tolerance=1e-6))
        err = float(np.linalg.norm(res.value.entries - resolvent_differential(t, h).entries))
        assert err == pytest.approx(9.9e-4, rel=1e-2)
        assert err <= res.diagnostics.tail_bound

    @pytest.mark.parametrize("fn", ALL_ALGORITHMS)
    def test_bound_scales_with_norm_of_h_and_n_does_not(self, fn):
        rng = np.random.default_rng(37)
        g = builtin_series("log1p")
        t, h = random_matrix(rng, 3, norm=0.3), random_matrix(rng, 3, norm=1.0)
        unit = fn(g, t, h).diagnostics
        big = fn(g, t, matrix(250.0 * h.entries)).diagnostics
        assert big.terms_used == unit.terms_used
        assert big.tail_bound == pytest.approx(250.0 * unit.tail_bound, rel=1e-12)
        assert fn(g, t, zeros(3)).diagnostics.tail_bound == 0.0

    @pytest.mark.parametrize("fn", ALL_ALGORITHMS)
    def test_unmet_bound_stays_infinite_for_zero_direction(self, fn):
        # so close to the ball's edge that the scan cannot settle past the cap
        rng = np.random.default_rng(38)
        norm = 0.33 if fn is frechet_derivative_series else 0.99
        t = random_matrix(rng, 3, norm=norm)
        pol = TruncationPolicy(max_terms=2)
        diag = fn(builtin_series("geometric"), t, zeros(3), pol).diagnostics
        assert diag.cap_hit
        assert diag.tail_bound == math.inf


def _a_priori_reference(g, t, h):
    """``g(T)`` and ``g'(T)(h)`` summed to the a priori N (``norm(T)`` alone) of a 1e-16 tolerance."""
    ta, ha = t.entries.astype(complex), h.entries.astype(complex)
    s = algebra_norm(t)
    n_value = choose_truncation(g, s, TruncationPolicy(tolerance=1e-16))
    value = np.zeros_like(ta)
    for n in range(n_value, -1, -1):
        value = value @ ta + g.coefficient(n) * np.eye(len(ta))
    n_diff = choose_truncation(g, s, TruncationPolicy(tolerance=1e-16,
                                                      bound_kind=BoundKind.FIRST_DERIVATIVE))
    diff, u, power = np.zeros_like(ta), ha, np.eye(len(ta), dtype=complex)
    for n in range(1, n_diff + 1):
        diff = diff + g.coefficient(n) * u
        power = power @ ta
        u = ta @ u + ha @ power
    return value, diff


def _log1p_differential_by_quadrature(t, h):
    """``log1p'(T)(h) = integral_0^1 (I + x T)^-1 h (I + x T)^-1 dx`` by Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(60)
    eye = np.eye(t.dim)
    acc = np.zeros_like(t.entries)
    for x, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        inv = np.linalg.inv(eye + x * t.entries)
        acc = acc + w * inv @ h.entries @ inv
    return acc


class TestPowerNormTruncation:
    """N from the power norms of T: never larger, and the tail bound still holds."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_errors_stay_within_the_tail_bound(self, name):
        # entire series use R = 2, as the benchmark does; norm(h) = 10
        g = builtin_series(name)
        radius = g.radius if math.isfinite(g.radius) else 2.0
        rng = np.random.default_rng(43)
        for structure in STRUCTURES:
            for frac in (0.3, 0.7, 0.95):
                t = structured_matrix(rng, structure, 4, frac * radius)
                h = structured_matrix(rng, "complex" if structure == "complex" else "gaussian",
                                      4, 10.0)
                ref_value, ref_diff = _a_priori_reference(g, t, h)
                for tol in (1e-4, 1e-7):
                    pol = TruncationPolicy(tolerance=tol)
                    value, diag = eval_matrix(g, t, pol)
                    results = [(value, diag, ref_value)]
                    for fn in ALL_ALGORITHMS:
                        if fn is frechet_derivative_series and not frac * radius < g.radius / 3:
                            continue
                        res = fn(g, t, h, pol)
                        results.append((res.value, res.diagnostics, ref_diff))
                    for got, d, ref in results:
                        err = np.linalg.norm(got.entries - ref)
                        slack = 1e-11 * max(1.0, np.linalg.norm(ref))
                        assert err <= d.tail_bound + slack, (structure, frac, tol, err, d)

    def test_near_radius_log1p_differential_needs_few_terms(self):
        rng = np.random.default_rng(40)
        t = structured_matrix(rng, "gaussian", 64, 0.9)
        h = structured_matrix(rng, "gaussian", 64, 1.0)
        g = builtin_series("log1p")
        direct = frechet_direct(g, t, h)
        assert direct.diagnostics.terms_used <= 40 < choose_truncation(
            g, 0.9, TruncationPolicy(bound_kind=BoundKind.FIRST_DERIVATIVE))
        second = frechet_power_commutant(g, t, h)
        assert rel_err(direct.value, second.value) <= 1e-12
        assert rel_err(direct.value, _log1p_differential_by_quadrature(t, h)) <= 1e-10

    def test_zero_run_list_against_the_polynomial_oracle(self):
        coeffs = [1.0] + [0.0] * 13 + [1.0]
        g = from_coefficients(coeffs, radius=math.inf)
        t = matrix(0.5 * np.eye(2))
        h = matrix([[0.0, 1.0], [0.0, 0.0]])
        res = frechet_direct(g, t, h)
        assert res.diagnostics.terms_used == 14
        np.testing.assert_allclose(res.value.entries,
                                   polynomial_differential(coeffs, t, h).entries, rtol=1e-15)
        rng = np.random.default_rng(44)
        t, h = random_matrix(rng, 3, norm=0.9), random_matrix(rng, 3)
        for fn in ALL_ALGORITHMS:
            got = fn(g, t, h).value
            assert rel_err(got, polynomial_differential(coeffs, t, h)) <= 1e-10, fn.__name__


class TestBallGuards:
    def test_derivative_series_rejects_outside_third(self):
        g = builtin_series("geometric")
        rng = np.random.default_rng(17)
        h = random_matrix(rng, 2)
        with pytest.raises(OutsideDerivativeBallError):
            frechet_derivative_series(g, random_matrix(rng, 2, norm=0.5), h)
        # the boundary itself is rejected (strict inequality)
        with pytest.raises(OutsideDerivativeBallError):
            frechet_derivative_series(g, random_matrix(rng, 2, norm=1.0 / 3.0), h)

    def test_dedicated_error_is_distinct(self):
        assert issubclass(OutsideDerivativeBallError, OutsideRadiusError)
        g = builtin_series("geometric")
        rng = np.random.default_rng(18)
        t, h = random_matrix(rng, 2, norm=0.5), random_matrix(rng, 2)
        try:
            frechet_derivative_series(g, t, h)
        except OutsideDerivativeBallError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected the R/3 rejection")
        # other algorithms accept the same input
        frechet_direct(g, t, h)
        frechet_commutant(g, t, h)

    def test_all_reject_outside_radius(self):
        g = builtin_series("geometric")
        rng = np.random.default_rng(19)
        t, h = random_matrix(rng, 2, norm=1.1), random_matrix(rng, 2)
        for fn in ALL_ALGORITHMS:
            with pytest.raises(OutsideRadiusError):
                fn(g, t, h)


class TestCompare:
    def test_inside_third_runs_all_four(self):
        rng = np.random.default_rng(20)
        rep = frechet_compare(builtin_series("geometric"),
                              random_matrix(rng, 3, norm=0.2), random_matrix(rng, 3))
        assert len(rep.results) == 4
        assert not rep.skipped
        assert rep.max_relative_difference <= 1e-10
        assert len(rep.pairwise) == 6

    def test_outside_third_skips_derivative_series(self):
        rng = np.random.default_rng(21)
        rep = frechet_compare(builtin_series("geometric"),
                              random_matrix(rng, 3, norm=0.5), random_matrix(rng, 3))
        assert len(rep.results) == 3
        assert len(rep.skipped) == 1
        assert rep.skipped[0].algorithm is Algorithm.DERIVATIVE_SERIES_FORM
        assert "R/3" in rep.skipped[0].reason

    def test_zero_point_gives_linear_term(self):
        h = matrix([[0.0, 1.0], [1.0, 0.0]])
        rep = frechet_compare(builtin_series("atan"), zeros(2), h)
        for res in rep.results:
            np.testing.assert_allclose(res.value.entries, h.entries, atol=1e-15)


class TestGrowthProbe:
    def test_partial_sums_grow_outside_third(self):
        # eigenvalues +-0.45 put the p-th term near (1/0.55)^p * 0.9^p,
        # a ratio of ~1.6, so the partial sums must blow up visibly
        t = matrix(np.diag([0.45, -0.45]))
        h = matrix([[0.0, 1.0], [1.0, 0.0]])
        norms = derivative_series_growth(builtin_series("geometric"), t, h, max_p=25)
        assert len(norms) == 25
        assert norms[-1] > 100 * norms[4]

    def test_converges_inside_third(self):
        rng = np.random.default_rng(23)
        t = random_matrix(rng, 3, norm=0.2)
        h = random_matrix(rng, 3)
        norms = derivative_series_growth(builtin_series("geometric"), t, h, max_p=40)
        direct = frechet_direct(builtin_series("geometric"), t, h).value
        assert abs(norms[-1] - algebra_norm(direct)) <= 1e-9 * algebra_norm(direct)


class TestCurves:
    def test_linear_curve_matches_closed_form(self):
        rng = np.random.default_rng(24)
        w = random_matrix(rng, 3, norm=0.8)
        curve = polynomial_curve([zeros(3), w])
        g = builtin_series("exp")
        t0 = 0.25
        got = curve_derivative(g, curve, t0)
        point = matrix(t0 * w.entries)
        gp, _ = eval_matrix(derivative_series(g, 1), point)
        expected = w.entries @ gp.entries
        np.testing.assert_allclose(got.entries, expected, rtol=1e-11)

    def test_constant_curve_has_zero_derivative(self):
        rng = np.random.default_rng(25)
        c = random_matrix(rng, 3, norm=0.2)
        curve = polynomial_curve([c])
        got = curve_derivative(builtin_series("exp"), curve, 1.7)
        np.testing.assert_array_equal(got.entries, np.zeros((3, 3)))

    def test_quadratic_curve_matches_time_finite_difference(self):
        rng = np.random.default_rng(26)
        a = random_matrix(rng, 3, norm=0.5)
        b = random_matrix(rng, 3, norm=0.5)
        curve = polynomial_curve([zeros(3), a, b])
        g = builtin_series("exp")
        t0, step = 0.1, 1e-5
        got = curve_derivative(g, curve, t0)
        hi, _ = eval_matrix(g, curve.value(t0 + step))
        lo, _ = eval_matrix(g, curve.value(t0 - step))
        fd = (hi.entries - lo.entries) / (2 * step)
        assert np.linalg.norm(got.entries - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_auto_derivative_uses_central_difference(self):
        rng = np.random.default_rng(27)
        a = random_matrix(rng, 2, norm=0.5)
        curve = MatrixCurve(value_at=lambda t: matrix(math.sin(t) * a.entries))
        got = curve.derivative(0.3)
        expected = math.cos(0.3) * a.entries
        np.testing.assert_allclose(got.entries, expected, atol=1e-9)

    def test_domain_guard(self):
        curve = polynomial_curve([identity(2)], domain=(0.0, 1.0))
        with pytest.raises(CurveDomainError):
            curve.value(1.0)
        with pytest.raises(CurveDomainError):
            curve_derivative(builtin_series("exp"), curve, -0.5)

    def test_r_over_three_checked_pointwise(self):
        w = matrix(np.eye(2) / math.sqrt(2))  # norm 1
        curve = polynomial_curve([zeros(2), w])
        g = builtin_series("geometric")
        curve_derivative(g, curve, 0.2)  # norm 0.2 < 1/3
        with pytest.raises(OutsideDerivativeBallError):
            curve_derivative(g, curve, 0.4)


class TestIntegralIdentity:
    def test_empty_interval_is_exact(self):
        rng = np.random.default_rng(28)
        w = random_matrix(rng, 2, norm=0.5)
        assert integral_identity_check(builtin_series("exp"), w, 0.7, 0.7) == 0.0

    def test_exp_of_nilpotent_ray(self):
        w = matrix([[0.0, 1.0], [0.0, 0.0]])
        residual = integral_identity_check(builtin_series("exp"), w, 0.0, 1.0)
        assert residual <= 1e-10

    def test_geometric_scaled_identity(self):
        w = matrix(0.5 * np.eye(2))
        residual = integral_identity_check(builtin_series("geometric"), w, 0.0, 1.0)
        assert residual <= 1e-8

    def test_reversed_endpoints(self):
        rng = np.random.default_rng(29)
        w = random_matrix(rng, 3, norm=0.4)
        residual = integral_identity_check(builtin_series("exp"), w, 0.8, -0.3)
        assert residual <= 1e-8

    def test_large_integrand_settles_under_the_relative_tolerance(self):
        # norm(exp(W) - I) is about 8.6e9: an absolute 1e-10 tolerance never settles here
        g, w = builtin_series("exp"), matrix([[20.0, 5.0], [-3.0, 25.0]])
        residual = integral_identity_check(g, w, 0.0, 1.0)
        scale = np.linalg.norm(eval_matrix(g, w)[0].entries - np.eye(2))
        assert residual <= 1e-9 * scale

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            integral_identity_check(builtin_series("exp"), zeros(2), 0.0, 1.0)

    def test_rejects_endpoint_outside_interval(self):
        w = matrix(np.eye(2))  # norm sqrt(2)
        with pytest.raises(OutsideRadiusError):
            integral_identity_check(builtin_series("geometric"), w, 0.0, 0.9)

    @staticmethod
    def assert_identity_holds(g, w, u1, u2):
        residual = integral_identity_check(g, w, u1, u2)
        hi, _ = eval_matrix(g, matrix(u2 * w.entries))
        lo, _ = eval_matrix(g, matrix(u1 * w.entries))
        scale = max(1.0, float(np.linalg.norm(hi.entries - lo.entries)))
        assert math.isfinite(residual)
        assert residual <= 1e-10 * scale, (residual, scale)

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("coefficient-list",))
    def test_every_series_near_the_radius(self, name):
        # s_max / R = 0.9; entire series use R = 2, as the benchmark does
        rng = np.random.default_rng(31)
        if name == "coefficient-list":
            g = from_coefficients(rng.uniform(-1.0, 1.0, 40) / 1.5 ** np.arange(40), radius=1.5)
        else:
            g = builtin_series(name)
        radius = g.radius if math.isfinite(g.radius) else 2.0
        self.assert_identity_holds(g, random_matrix(rng, 3, norm=0.9 * radius), -0.4, 1.0)

    def test_complex_direction(self):
        rng = np.random.default_rng(32)
        w = random_matrix(rng, 3, ScalarField.COMPLEX, norm=0.8)
        self.assert_identity_holds(builtin_series("log1p"), w, 0.0, 1.0)

    def test_complex_coefficients_on_a_real_direction(self):
        rng = np.random.default_rng(33)
        g = from_coefficients([0.5, 1.0 + 2.0j, -0.3j, 0.25, 0.1 - 0.1j], radius=math.inf)
        self.assert_identity_holds(g, random_matrix(rng, 3, norm=1.5), -0.5, 1.0)

    @pytest.mark.parametrize("u1,u2", [(0.9, -0.6), (-0.9, -0.2)])
    def test_endpoint_orders_and_signs(self, u1, u2):
        rng = np.random.default_rng(34)
        w = random_matrix(rng, 3, norm=1.0)
        self.assert_identity_holds(builtin_series("geometric"), w, u1, u2)

    def test_empty_interval_at_zero_is_exact(self):
        w = matrix([[0.0, 2.0], [0.5, 0.0]])
        assert integral_identity_check(builtin_series("exp"), w, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("name,u1,u2", [("exp", -1e-5, 2e-5),
                                            ("geometric", -0.45e-6, 0.9e-6)])
    def test_nilpotent_direction_with_a_huge_entry(self, name, u1, u2):
        w = matrix([[0.0, 1e6], [0.0, 0.0]])
        self.assert_identity_holds(builtin_series(name), w, u1, u2)

    def test_exp_at_norm_twenty(self):
        a = 20.0 / math.sqrt(2.0)
        w = matrix([[0.0, a], [-a, 0.0]])  # exp(t W) is a rotation
        assert algebra_norm(w) == pytest.approx(20.0)
        self.assert_identity_holds(builtin_series("exp"), w, 0.0, 1.0)

    def test_term_cap_raises_instead_of_truncating(self):
        with pytest.raises(SeriesError, match="term cap"):
            integral_identity_check(builtin_series("geometric"), matrix([[0.9999]]), 0.0, 1.0)

    def test_endpoint_term_cap_raises(self):
        # g = x^2 needs N = 2 and g' = 2x only N = 1, so a cap of 1 trips
        # only at the endpoints
        with pytest.raises(SeriesError, match="term cap"):
            integral_identity_check(SQUARE_SERIES, matrix([[0.5]]), 0.0, 1.0,
                                    TruncationPolicy(max_terms=1))

    def test_one_truncation_of_the_derivative_per_check(self, monkeypatch):
        import matseries.frechet as frechet_module
        import matseries.series as series_module

        names = []
        original = series_module._truncation_detail

        def counting(g, *args):
            names.append(g.name)
            return original(g, *args)

        monkeypatch.setattr(series_module, "_truncation_detail", counting)
        monkeypatch.setattr(frechet_module, "_truncation_detail", counting)
        rng = np.random.default_rng(35)
        w = random_matrix(rng, 4, norm=0.9)
        integral_identity_check(builtin_series("geometric"), w, -0.3, 1.0)
        assert names.count("geometric'") == 1
        assert names.count("geometric") == 2  # the two endpoints


class TestMixedInputs:
    def test_dimension_mismatch(self):
        rng = np.random.default_rng(30)
        with pytest.raises(Exception):
            frechet_direct(builtin_series("exp"), random_matrix(rng, 2), random_matrix(rng, 3))

    def test_complex_field_supported_everywhere(self):
        rng = np.random.default_rng(31)
        t = random_matrix(rng, 3, ScalarField.COMPLEX, norm=0.25)
        h = random_matrix(rng, 3, ScalarField.COMPLEX)
        g = builtin_series("log1p")
        base = frechet_direct(g, t, h).value
        for fn in ALL_ALGORITHMS[1:]:
            assert relative_difference(fn(g, t, h).value, base) <= 1e-10

    def test_complex_coefficients_promote_real_matrices(self):
        rng = np.random.default_rng(32)
        g = from_coefficients([0.0, 1j, 0.5j], radius=math.inf)
        t = random_matrix(rng, 2, norm=0.4)
        h = random_matrix(rng, 2)
        res = frechet_direct(g, t, h)
        assert res.value.field is ScalarField.COMPLEX
        expected = 1j * h.entries + 0.5j * (h.entries @ t.entries + t.entries @ h.entries)
        np.testing.assert_allclose(res.value.entries, expected, rtol=1e-14)
