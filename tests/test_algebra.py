"""Matrix construction, norms, and the three operator families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matseries import (
    AlgebraError,
    DimensionMismatchError,
    FieldMismatchError,
    MatrixElement,
    ScalarField,
    algebra_norm,
    apply_commutant,
    apply_commutant_power,
    identity,
    matrix,
    zeros,
)
from helpers import random_matrix

T_NILP = matrix([[0.0, 1.0], [0.0, 0.0]])
H_CORNER = matrix([[1.0, 0.0], [0.0, 0.0]])


def square_arrays(dim, lo=-10.0, hi=10.0):
    return arrays(np.float64, (dim, dim),
                  elements=st.floats(min_value=lo, max_value=hi, allow_nan=False))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(AlgebraError):
            matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_dim_zero(self):
        with pytest.raises(AlgebraError):
            MatrixElement(np.zeros((0, 0)), ScalarField.REAL)

    def test_rejects_complex_data_on_real_field(self):
        with pytest.raises(FieldMismatchError):
            MatrixElement(np.array([[1j]]), ScalarField.REAL)

    def test_rejects_non_finite(self):
        with pytest.raises(AlgebraError):
            matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_field_inference(self):
        assert matrix([[1.0]]).field is ScalarField.REAL
        assert matrix([[1.0 + 0j]]).field is ScalarField.COMPLEX

    def test_entries_read_only(self):
        m = matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0

    def test_real_data_promoted_to_complex_field(self):
        m = matrix([[1.0]], field=ScalarField.COMPLEX)
        assert m.field is ScalarField.COMPLEX
        assert m.entries.dtype == np.complex128


class TestJson:
    def test_real_roundtrip(self):
        m = matrix([[1.5, -2.0], [0.25, 3.0]])
        again = MatrixElement.from_json(m.to_json())
        np.testing.assert_array_equal(again.entries, m.entries)
        assert again.field is ScalarField.REAL

    def test_complex_roundtrip(self):
        m = matrix([[1 + 2j, 0], [0.5j, -1]])
        obj = m.to_json()
        assert obj["field"] == "complex"
        assert obj["entries"][0] == [1.0, 2.0]
        again = MatrixElement.from_json(obj)
        np.testing.assert_array_equal(again.entries, m.entries)

    @pytest.mark.parametrize("bad", [
        {"dim": 2, "field": "real"},
        {"dim": 2, "field": "quaternion", "entries": [0.0] * 4},
        {"dim": 2, "field": "real", "entries": [0.0] * 3},
        {"dim": 0, "field": "real", "entries": []},
        {"dim": 2, "field": "real", "entries": ["x", 0.0, 0.0, 0.0]},
        {"dim": 1, "field": "complex", "entries": [1.0]},
        [1, 2, 3],
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AlgebraError):
            MatrixElement.from_json(bad)


class TestMatMul:
    def test_identity_is_neutral(self):
        a = random_matrix(np.random.default_rng(50), 3)
        np.testing.assert_array_equal((identity(3) @ a).entries, a.entries)

    def test_zero_absorbs(self):
        a = random_matrix(np.random.default_rng(51), 3)
        np.testing.assert_array_equal((a @ zeros(3)).entries, np.zeros((3, 3)))

    def test_nilpotent_square(self):
        np.testing.assert_array_equal((T_NILP @ T_NILP).entries, np.zeros((2, 2)))


class TestNorm:
    def test_zero_matrix(self):
        assert algebra_norm(zeros(3)) == 0.0

    def test_identity_two_by_two(self):
        assert algebra_norm(identity(2)) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_three_four_row(self):
        assert algebra_norm(matrix([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)

    def test_entries_whose_squares_leave_the_double_range(self):
        assert algebra_norm(matrix([[1e-200]])) == 1e-200
        assert algebra_norm(matrix([[1e200, 1e200], [0.0, 0.0]])) == pytest.approx(
            math.sqrt(2.0) * 1e200, rel=1e-15)
        assert algebra_norm(matrix([[1e300 + 1e300j]])) == pytest.approx(
            math.sqrt(2.0) * 1e300, rel=1e-15)
        assert algebra_norm(matrix(np.full((2, 2), 1e308))) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(a=square_arrays(3), b=square_arrays(3))
    def test_submultiplicative(self, a, b):
        ma, mb = matrix(a), matrix(b)
        assert algebra_norm(ma @ mb) <= algebra_norm(ma) * algebra_norm(mb) * (1 + 1e-12)


class TestOperatorFamilies:
    def test_commutant_examples(self):
        h = random_matrix(np.random.default_rng(2), 2)
        assert np.allclose(apply_commutant(identity(2), h).entries, 0.0)
        t = random_matrix(np.random.default_rng(3), 2)
        assert np.allclose(apply_commutant(t, t).entries, 0.0)
        np.testing.assert_array_equal(
            apply_commutant(T_NILP, H_CORNER).entries, [[0.0, 1.0], [0.0, 0.0]])

    def test_families_commute(self):
        # R(T1) L(T2) h and L(T2) R(T1) h are both T1 h T2
        rng = np.random.default_rng(4)
        for _ in range(20):
            t1, t2, h = (random_matrix(rng, 4) for _ in range(3))
            one = t1 @ (h @ t2)
            two = (t1 @ h) @ t2
            scale = max(algebra_norm(one), 1.0)
            assert np.linalg.norm(one.entries - two.entries) <= 1e-14 * scale

    def test_operator_norm_bounds(self):
        rng = np.random.default_rng(5)
        for field in ScalarField:
            for _ in range(25):
                t = random_matrix(rng, 4, field)
                h = random_matrix(rng, 4, field)
                nt, nh = algebra_norm(t), algebra_norm(h)
                slack = 1 + 1e-12
                assert algebra_norm(t @ h) <= nt * nh * slack
                assert algebra_norm(h @ t) <= nt * nh * slack
                assert algebra_norm(apply_commutant(t, h)) <= 2 * nt * nh * slack

    def test_linearity_in_h(self):
        rng = np.random.default_rng(6)
        t = random_matrix(rng, 3)
        h1, h2 = random_matrix(rng, 3), random_matrix(rng, 3)
        for op in (lambda t, h: h @ t, lambda t, h: t @ h, apply_commutant):
            combo = op(t, matrix(2.5 * h1.entries - 0.5 * h2.entries))
            parts = 2.5 * op(t, h1).entries - 0.5 * op(t, h2).entries
            np.testing.assert_allclose(combo.entries, parts, rtol=1e-13, atol=1e-13)


class TestCommutantPower:
    def test_power_zero_is_identity_map(self):
        h = random_matrix(np.random.default_rng(7), 3)
        t = random_matrix(np.random.default_rng(8), 3)
        assert np.array_equal(apply_commutant_power(t, h, 0).entries, h.entries)

    def test_power_one_is_single_bracket(self):
        rng = np.random.default_rng(9)
        t, h = random_matrix(rng, 3), random_matrix(rng, 3)
        np.testing.assert_array_equal(
            apply_commutant_power(t, h, 1).entries, apply_commutant(t, h).entries)

    def test_nilpotent_case_vs_brute_force(self):
        # brute-force nesting with raw numpy, independent of the library loop
        t, h = T_NILP, H_CORNER
        brute = h.entries
        for _ in range(2):
            brute = brute @ t.entries - t.entries @ brute
        got = apply_commutant_power(t, h, 2)
        np.testing.assert_array_equal(got.entries, brute)
        np.testing.assert_array_equal(got.entries, np.zeros((2, 2)))

    @pytest.mark.parametrize("p", range(0, 9))
    def test_binomial_equivalence(self, p):
        # Residuals are measured against the shared term bound (2 norm(T))^p
        # norm(h): the two routes cancel identical large terms, so output
        # norms can be arbitrarily small while the rounding floor cannot.
        rng = np.random.default_rng(100 + p)
        for dim in (2, 4, 6):
            t, h = random_matrix(rng, dim), random_matrix(rng, dim)
            nested = apply_commutant_power(t, h, p)
            pows = [np.eye(dim)]
            for _ in range(p):
                pows.append(pows[-1] @ t.entries)
            binom = sum((-1.0) ** k * math.comb(p, k) * (pows[k] @ h.entries @ pows[p - k])
                        for k in range(p + 1))
            scale = (2.0 * algebra_norm(t)) ** p * algebra_norm(h)
            assert np.linalg.norm(nested.entries - binom) <= 1e-13 * scale
            if p <= 4:
                out_scale = max(np.linalg.norm(binom), 1e-300)
                assert np.linalg.norm(nested.entries - binom) / out_scale <= 1e-13

    def test_rejects_negative_power(self):
        with pytest.raises(AlgebraError):
            apply_commutant_power(T_NILP, H_CORNER, -1)


class TestMixedFieldAndDims:
    def test_mixed_field_rejected(self):
        a = matrix([[1.0]])
        b = matrix([[1.0 + 0j]])
        with pytest.raises(FieldMismatchError):
            a @ b

    @pytest.mark.parametrize("op", [lambda a, b: a @ b, lambda a, b: a + b,
                                    lambda a, b: a - b, apply_commutant],
                             ids=["matmul", "add", "sub", "commutant"])
    def test_dim_mismatch_rejected(self, op):
        with pytest.raises(DimensionMismatchError):
            op(identity(2), identity(3))

    def test_complex_scalar_on_real_matrix_rejected(self):
        with pytest.raises(FieldMismatchError):
            1j * identity(2)

    def test_real_scalar_fine_on_both_fields(self):
        assert (2.0 * identity(2)).entries[0, 0] == 2.0
        assert (identity(2, ScalarField.COMPLEX) * 2.0).entries[0, 0] == 2.0 + 0j
        assert (-identity(2)).entries[0, 0] == -1.0

